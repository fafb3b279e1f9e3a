#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/dangoron_engine.h"
#include "engine/factory.h"
#include "ts/generators.h"

namespace dangoron {
namespace {

TEST(FactoryTest, CreatesEveryKnownEngine) {
  for (const char* name : {"naive", "tsubasa", "dangoron", "parcorr"}) {
    const auto engine = CreateEngine(name);
    ASSERT_TRUE(engine.ok()) << name;
    EXPECT_FALSE((*engine)->name().empty());
  }
}

TEST(FactoryTest, UnknownEngineIsNotFound) {
  const auto engine = CreateEngine("statstream");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
}

TEST(FactoryTest, OptionParsing) {
  EXPECT_TRUE(CreateEngine("dangoron",
                           "basic_window=12,jump=off,above_jump=on,"
                           "max_jump=5,horizontal=on,pivots=3,threads=2")
                  .ok());
  EXPECT_TRUE(CreateEngine("tsubasa", "basic_window=48,threads=4").ok());
  EXPECT_TRUE(
      CreateEngine("parcorr", "dim=32,seed=7,verify=on,margin=0.2").ok());
  // Whitespace tolerated.
  EXPECT_TRUE(CreateEngine("dangoron", " jump = on , pivots = 2 ").ok());
}

TEST(FactoryTest, BadOptionsRejected) {
  EXPECT_FALSE(CreateEngine("dangoron", "bogus=1").ok());
  EXPECT_FALSE(CreateEngine("naive", "threads=2").ok());  // naive has none
  // The scalar sweep oracle is a DangoronOptions field, not a CLI key.
  EXPECT_FALSE(CreateEngine("dangoron", "sweep=off").ok());
  EXPECT_FALSE(CreateEngine("dangoron", "jump=sideways").ok());
  EXPECT_FALSE(CreateEngine("dangoron", "jump").ok());  // not key=value
  EXPECT_FALSE(CreateEngine("parcorr", "dim=notanumber").ok());
}

TEST(FactoryTest, OptionsReachTheEngine) {
  // A dangoron engine built with jump=off must behave exactly like a
  // directly constructed incremental engine.
  Rng rng(5);
  TimeSeriesMatrix data = GenerateWhiteNoise(6, 24 * 15, &rng);
  SlidingQuery query;
  query.start = 0;
  query.end = data.length();
  query.window = 24 * 4;
  query.step = 24;
  query.threshold = 0.3;

  auto factory_engine = CreateEngine("dangoron", "jump=off,basic_window=24");
  ASSERT_TRUE(factory_engine.ok());
  ASSERT_TRUE((*factory_engine)->Prepare(data).ok());
  auto factory_result = (*factory_engine)->Query(query);
  ASSERT_TRUE(factory_result.ok());
  EXPECT_EQ((*factory_engine)->name(), "dangoron-incremental");
  EXPECT_EQ((*factory_engine)->stats().cells_jumped, 0);

  DangoronOptions options;
  options.enable_jumping = false;
  DangoronEngine direct(options);
  ASSERT_TRUE(direct.Prepare(data).ok());
  auto direct_result = direct.Query(query);
  ASSERT_TRUE(direct_result.ok());

  ASSERT_EQ(factory_result->TotalEdges(), direct_result->TotalEdges());
  for (int64_t k = 0; k < direct_result->num_windows(); ++k) {
    const auto a = factory_result->WindowEdges(k);
    const auto b = direct_result->WindowEdges(k);
    ASSERT_EQ(a.size(), b.size());
    for (size_t e = 0; e < a.size(); ++e) {
      EXPECT_DOUBLE_EQ(a[e].value, b[e].value);
    }
  }
}

TEST(FactoryTest, KnownEngineNamesMentionsAll) {
  const std::string names = KnownEngineNames();
  EXPECT_NE(names.find("naive"), std::string::npos);
  EXPECT_NE(names.find("tsubasa"), std::string::npos);
  EXPECT_NE(names.find("dangoron"), std::string::npos);
  EXPECT_NE(names.find("parcorr"), std::string::npos);
}

}  // namespace
}  // namespace dangoron
