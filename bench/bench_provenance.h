// Provenance stamp shared by every bench that writes a BENCH_*.json row.

#ifndef DANGORON_BENCH_BENCH_PROVENANCE_H_
#define DANGORON_BENCH_BENCH_PROVENANCE_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

namespace dangoron {

// Where a bench row was measured: the commit of the source tree ("-dirty"
// when it has uncommitted changes), the compiler, the cores the host
// reports and the -march the build resolved (CMake's DANGORON_BENCH_MARCH).
// Appended to every row as JSON fields.
inline std::string ProvenanceJson() {
  std::string commit = "unknown";
  if (std::FILE* git =
          popen("git -C " DANGORON_BENCH_SOURCE_DIR
                " describe --always --dirty --abbrev=12 2>/dev/null",
                "r")) {
    char line[64] = {};
    if (std::fgets(line, sizeof(line), git) != nullptr) {
      commit = std::string(line, std::strcspn(line, "\n"));
    }
    pclose(git);
  }
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "g++ " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "\"commit\": \"" + commit + "\", \"compiler\": \"" + compiler +
         "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"march\": \"" DANGORON_BENCH_MARCH "\"";
}

}  // namespace dangoron

#endif  // DANGORON_BENCH_BENCH_PROVENANCE_H_
