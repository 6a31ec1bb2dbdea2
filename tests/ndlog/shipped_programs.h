// The NDlog corpus the repository ships: the src/protocols program library
// and the examples/programs/*.ndlog fixtures, as (label, source) pairs.
#ifndef NETTRAILS_TESTS_NDLOG_SHIPPED_PROGRAMS_H_
#define NETTRAILS_TESTS_NDLOG_SHIPPED_PROGRAMS_H_

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/protocols/programs.h"

namespace nettrails {
namespace ndlog {

inline std::vector<std::pair<std::string, std::string>> ShippedSources() {
  std::vector<std::pair<std::string, std::string>> sources = {
      {"mincost", protocols::MincostProgram()},
      {"pathvector", protocols::PathVectorProgram()},
      {"dsr", protocols::DsrProgram()},
      {"linkstate", protocols::LinkStateProgram()},
      {"bgp-maybe", protocols::BgpMaybeProgram()}};
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(NETTRAILS_SOURCE_DIR) + "/examples/programs")) {
    if (entry.path().extension() != ".ndlog") continue;
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    sources.emplace_back(entry.path().filename().string(), buf.str());
  }
  return sources;
}

}  // namespace ndlog
}  // namespace nettrails

#endif  // NETTRAILS_TESTS_NDLOG_SHIPPED_PROGRAMS_H_
