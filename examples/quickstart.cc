// Quickstart: the in-process tour of the library, and README.md's
// quickstart compiled and run as a ctest.
//
//   1. Register a time-series matrix with a DangoronServer (here:
//      synthetic hourly temperatures from 16 weather stations).
//   2. Stream one sliding-window query: window l, step eta, threshold beta.
//      Each window's thresholded correlation network arrives as soon as it
//      is computed.
//   3. Check the answer: the exact tier is exact, so the brute-force
//      NaiveEngine finds as many edges. The program exits 1 otherwise.
//
// The lines between the two README markers are README.md's quickstart
// block, byte for byte (scripts/check_invariants.py, readme-quickstart).
//
// Build and run:
//   cmake -B build -S . && cmake --build build -j
//   ./build/quickstart

// README quickstart begin
#include <cstdio>

#include "common/logging.h"
#include "engine/factory.h"
#include "serve/server.h"
#include "ts/generators.h"

int main() {
  using namespace dangoron;
  DangoronServer server;  // basic_window = 24, one worker per core
  ClimateSpec spec;       // hourly temperatures of 16 stations, 90 days
  spec.num_stations = 16;
  spec.num_hours = 24 * 90;
  auto climate = GenerateClimate(spec);
  CHECK(climate.ok());
  CHECK(server.AddDataset("demo", climate->data).ok());

  QueryRequest req;
  req.dataset = "demo";
  req.query = {.start = 0, .end = 24 * 90, .window = 24 * 30,
               .step = 24, .threshold = 0.7};
  auto stream = server.SubmitStreaming(req);
  int64_t edges = 0;
  while (auto w = stream->Next()) {  // windows land as computed
    std::printf("window %lld: %zu edges\n",
                static_cast<long long>(w->window_index), w->edges->size());
    edges += static_cast<int64_t>(w->edges->size());
  }
  CHECK(stream->status().ok());

  // The exact tier is exact: the brute-force engine finds as many edges.
  auto naive = CreateEngine("naive");
  CHECK(naive.ok() && (*naive)->Prepare(climate->data).ok());
  auto truth = (*naive)->Query(req.query);
  CHECK(truth.ok());
  std::printf("%lld edges streamed, %lld from NaiveEngine\n",
              static_cast<long long>(edges),
              static_cast<long long>(truth->TotalEdges()));
  return edges > 0 && edges == truth->TotalEdges() ? 0 : 1;
}
// README quickstart end
