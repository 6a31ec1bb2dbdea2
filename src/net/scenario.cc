#include "src/net/scenario.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "src/protocols/programs.h"
#include "src/runtime/engine.h"

namespace nettrails {
namespace net {

const char* ScenarioActionName(ScenarioAction a) {
  switch (a) {
    case ScenarioAction::kFailLink:
      return "fail";
    case ScenarioAction::kRecoverLink:
      return "recover";
    case ScenarioAction::kCrashNode:
      return "crash";
    case ScenarioAction::kRestartNode:
      return "restart";
  }
  return "?";
}

namespace {

std::vector<std::string> TokenizeLine(const std::string& line) {
  std::string body = line.substr(0, line.find('#'));
  std::istringstream ss(body);
  std::vector<std::string> tokens;
  std::string tok;
  while (ss >> tok) tokens.push_back(tok);
  return tokens;
}

Status ScnError(size_t line_no, const std::string& msg) {
  return Status::ParseError("scenario: line " + std::to_string(line_no) +
                            ": " + msg);
}

/// Parses "<integer><unit>" with unit us|ms|s.
bool ParseTime(const std::string& s, Time* out) {
  size_t i = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
  if (i == 0) return false;
  uint64_t v = 0;
  for (size_t j = 0; j < i; ++j) {
    if (v > (UINT64_MAX - (s[j] - '0')) / 10) return false;
    v = v * 10 + static_cast<uint64_t>(s[j] - '0');
  }
  std::string unit = s.substr(i);
  uint64_t scale;
  if (unit == "us") {
    scale = 1;
  } else if (unit == "ms") {
    scale = kMillisecond;
  } else if (unit == "s") {
    scale = kSecond;
  } else {
    return false;
  }
  if (v > UINT64_MAX / scale) return false;
  *out = v * scale;
  return true;
}

std::string RenderTime(Time t) {
  if (t >= kSecond && t % kSecond == 0) {
    return std::to_string(t / kSecond) + "s";
  }
  if (t >= kMillisecond && t % kMillisecond == 0) {
    return std::to_string(t / kMillisecond) + "ms";
  }
  return std::to_string(t) + "us";
}

bool ParseAction(const std::string& s, ScenarioAction* out) {
  if (s == "fail") {
    *out = ScenarioAction::kFailLink;
  } else if (s == "recover") {
    *out = ScenarioAction::kRecoverLink;
  } else if (s == "crash") {
    *out = ScenarioAction::kCrashNode;
  } else if (s == "restart") {
    *out = ScenarioAction::kRestartNode;
  } else {
    return false;
  }
  return true;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    if (v > (UINT64_MAX - (c - '0')) / 10) return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

/// The first overflowed engine's error (it names the node and the trigger):
/// an overflowed engine derives nothing more, so the run is void.
Status CheckNoOverflow(
    const std::vector<std::unique_ptr<runtime::Engine>>& engines) {
  for (const auto& e : engines) NT_RETURN_IF_ERROR(e->overflow_status());
  return Status::OK();
}

}  // namespace

Result<Scenario> ParseScenario(const std::string& text) {
  Scenario s;
  bool saw_event = false;
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::vector<std::string> tok = TokenizeLine(line);
    if (tok.empty()) continue;
    if (tok[0] == "scenario") {
      if (tok.size() != 2) {
        return ScnError(line_no, "expected `scenario <name>`");
      }
      if (!s.name.empty()) return ScnError(line_no, "duplicate `scenario`");
      if (saw_event) {
        return ScnError(line_no, "`scenario` must precede events");
      }
      s.name = tok[1];
    } else if (tok[0] == "at") {
      ScenarioEvent ev;
      if (tok.size() != 4 || !ParseTime(tok[1], &ev.time) ||
          !ParseAction(tok[2], &ev.action) ||
          !ParseUint(tok[3], &ev.index)) {
        return ScnError(line_no,
                        "expected `at <time> fail|recover|crash|restart "
                        "<index>` (time = <int>us|ms|s)");
      }
      if (!s.events.empty() && ev.time < s.events.back().time) {
        return ScnError(line_no, "event times must be non-decreasing");
      }
      s.events.push_back(ev);
      saw_event = true;
    } else {
      return ScnError(line_no, "unknown directive `" + tok[0] + "`");
    }
  }
  if (s.events.empty()) {
    return Status::ParseError("scenario: no events");
  }
  return s;
}

Result<Scenario> LoadScenarioFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read scenario file " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  Result<Scenario> parsed = ParseScenario(buf.str());
  if (!parsed.ok()) {
    return Status::ParseError(path + ": " + parsed.status().message());
  }
  return parsed;
}

std::string SerializeScenario(const Scenario& s) {
  std::string out;
  if (!s.name.empty()) out += "scenario " + s.name + "\n";
  for (const ScenarioEvent& ev : s.events) {
    out += "at " + RenderTime(ev.time) + " " +
           std::string(ScenarioActionName(ev.action)) + " " +
           std::to_string(ev.index) + "\n";
  }
  return out;
}

Result<ScenarioRunStats> RunScenario(
    const Scenario& scenario, const Topology& topo,
    std::vector<std::unique_ptr<runtime::Engine>>* engines, Simulator* sim) {
  if (topo.links.empty() || topo.num_nodes == 0) {
    return Status::InvalidArgument("scenario: empty topology");
  }
  if (engines->size() != topo.num_nodes) {
    return Status::InvalidArgument(
        "scenario: engine count does not match topology");
  }
  ScenarioRunStats stats;
  std::set<size_t> failed_links;
  std::map<NodeId, runtime::EngineCheckpoint> checkpoints;
  auto crashed = [&](NodeId v) { return checkpoints.count(v) > 0; };
  for (const ScenarioEvent& ev : scenario.events) {
    sim->RunUntil(std::max(sim->now(), ev.time));
    switch (ev.action) {
      case ScenarioAction::kFailLink:
      case ScenarioAction::kRecoverLink: {
        size_t idx = ev.index % topo.links.size();
        const CostedLink& l = topo.links[idx];
        bool want_fail = ev.action == ScenarioAction::kFailLink;
        // Skip deterministically when the event does not apply: already in
        // the target state, or an endpoint is down (its engine is halted).
        if ((failed_links.count(idx) > 0) == want_fail || crashed(l.a) ||
            crashed(l.b)) {
          ++stats.skipped;
          break;
        }
        Status st = want_fail
                        ? protocols::FailLink(l.a, l.b, l.cost, engines, sim,
                                              /*run_to_quiescence=*/false)
                        : protocols::RecoverLink(
                              l.a, l.b, l.cost, engines, sim,
                              /*run_to_quiescence=*/false);
        NT_RETURN_IF_ERROR(st);
        if (want_fail) {
          failed_links.insert(idx);
        } else {
          failed_links.erase(idx);
        }
        ++stats.applied;
        break;
      }
      case ScenarioAction::kCrashNode: {
        NodeId v = static_cast<NodeId>(ev.index % topo.num_nodes);
        // Skip if v is already down, or one of its links is protocol-failed
        // (CrashNode retracts and RestartNode re-announces every incident
        // link, which would resurrect the failed one — authors space crash
        // away from same-node link churn; the guard keeps a colliding
        // modulo reduction deterministic instead of corrupting state).
        bool incident_failed = false;
        for (size_t idx : failed_links) {
          const CostedLink& l = topo.links[idx];
          if (l.a == v || l.b == v) {
            incident_failed = true;
            break;
          }
        }
        if (crashed(v) || incident_failed) {
          ++stats.skipped;
          break;
        }
        checkpoints.emplace(v, (*engines)[v]->TakeCheckpoint());
        NT_RETURN_IF_ERROR(protocols::CrashNode(
            v, topo, engines, sim, /*run_to_quiescence=*/false));
        ++stats.applied;
        break;
      }
      case ScenarioAction::kRestartNode: {
        NodeId v = static_cast<NodeId>(ev.index % topo.num_nodes);
        auto it = checkpoints.find(v);
        if (it == checkpoints.end()) {
          ++stats.skipped;
          break;
        }
        NT_RETURN_IF_ERROR(protocols::RestartNode(
            v, it->second, topo, engines, sim, /*run_to_quiescence=*/false));
        checkpoints.erase(it);
        ++stats.applied;
        break;
      }
    }
    NT_RETURN_IF_ERROR(CheckNoOverflow(*engines));
  }
  sim->Run();
  NT_RETURN_IF_ERROR(CheckNoOverflow(*engines));
  return stats;
}

}  // namespace net
}  // namespace nettrails
