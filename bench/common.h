// Shared plumbing for the table/figure reproduction binaries: builds each
// suite circuit, applies TPI with the paper's chain counts, and offers a
// simple circuit filter plus the cross-bench options:
//   <bench> [circuit ...]        run only the named circuits
//   <bench> --max-gates N        skip circuits above N gates
//   <bench> --jobs N             executors for the fault-parallel phases
//                                (0 = one per hardware thread, 1 = serial)
//   <bench> --json <path>        also write one machine-readable JSON record
//                                per circuit (BENCH_*.json trajectories)
//   <bench> --progress           periodic heartbeat lines on stderr; a
//                                SIGUSR1 prints a full live status dump
// With no arguments every suite circuit runs (paper configuration).
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_circuits/suite.h"
#include "fault/fault.h"
#include "netlist/levelize.h"
#include "scan/scan_mode_model.h"
#include "scan/tpi.h"

namespace fsct::benchtool {

/// True when argv[i] is an option that consumes the next argument.
inline bool option_with_value(const char* s) {
  return std::strcmp(s, "--max-gates") == 0 || std::strcmp(s, "--jobs") == 0 ||
         std::strcmp(s, "--json") == 0;
}

/// A bad command line: message on stderr, exit 2 (as `fsct` does).
[[noreturn]] inline void usage_error(const char* argv0,
                                     const std::string& msg) {
  const char* slash = std::strrchr(argv0, '/');
  std::fprintf(stderr, "%s: %s\n", slash ? slash + 1 : argv0, msg.c_str());
  std::exit(2);
}

/// The operand of the value option at argv[i]; a missing one is an error.
inline const char* operand(int argc, char** argv, int i) {
  if (i + 1 >= argc) {
    usage_error(argv[0], std::string(argv[i]) + " requires a value");
  }
  return argv[i + 1];
}

/// Checked integer operand: the whole token must be a number in [lo, hi].
/// std::atoi would silently turn "x" into 0.
inline int int_operand(int argc, char** argv, int i, long lo, long hi) {
  const char* text = operand(argc, argv, i);
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') {
    usage_error(argv[0], std::string(argv[i]) + ": invalid integer '" + text +
                             "'");
  }
  if (errno == ERANGE || v < lo || v > hi) {
    usage_error(argv[0], std::string(argv[i]) + ": value " + text +
                             " out of range [" + std::to_string(lo) + ", " +
                             std::to_string(hi) + "]");
  }
  return static_cast<int>(v);
}

/// Suite circuits named on the command line (all when none is named), minus
/// those above --max-gates.  Checks every operand: an unknown name, a
/// missing value or a malformed --max-gates/--jobs integer exits 2.
inline std::vector<SuiteEntry> select_circuits(int argc, char** argv) {
  std::vector<std::string> names;
  int max_gates = 1 << 30;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-gates") == 0) {
      max_gates = int_operand(argc, argv, i++, 1, 1 << 30);
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      int_operand(argc, argv, i++, 0, 4096);  // read by select_jobs
    } else if (option_with_value(argv[i])) {
      operand(argc, argv, i++);  // --json: read by select_json_path
    } else if (argv[i][0] != '-') {
      names.emplace_back(argv[i]);
    }
  }
  for (const std::string& n : names) {
    bool known = false;
    for (const SuiteEntry& e : paper_suite()) known |= n == e.name;
    if (!known) usage_error(argv[0], "unknown circuit '" + n + "'");
  }
  std::vector<SuiteEntry> out;
  for (const SuiteEntry& e : paper_suite()) {
    if (!names.empty()) {
      bool want = false;
      for (const std::string& n : names) want |= (n == e.name);
      if (!want) continue;
    }
    if (e.gates > max_gates) continue;
    out.push_back(e);
  }
  return out;
}

/// --jobs value (default 0 = one executor per hardware thread).
inline int select_jobs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      return int_operand(argc, argv, i, 0, 4096);
    }
  }
  return 0;
}

/// --json value, or empty when no JSON output was requested.
inline std::string select_json_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return argv[i + 1];
  }
  return {};
}

/// Host hardware threads (0 when the runtime cannot tell).
inline unsigned hardware_threads() { return std::thread::hardware_concurrency(); }

/// True when `jobs_used` oversubscribes the host: more executors than
/// hardware threads.  Timings are then wall-clock of time-sliced threads and
/// speedup numbers are not meaningful (results are still correct).
inline bool jobs_oversubscribed(unsigned jobs_used) {
  const unsigned hc = hardware_threads();
  return hc != 0 && jobs_used > hc;
}

/// Warns on stderr when the resolved job count oversubscribes the host —
/// once per process, not once per circuit (benches call this in a loop).
/// The per-row `jobs_oversubscribed` JSON field carries the same fact
/// machine-readably for every record.
inline void warn_if_oversubscribed(unsigned jobs_used) {
  static bool warned = false;
  if (jobs_oversubscribed(jobs_used) && !warned) {
    warned = true;
    std::fprintf(stderr,
                 "warning: --jobs %u oversubscribes this host "
                 "(%u hardware threads); timings will not reflect real "
                 "parallel speedup\n",
                 jobs_used, hardware_threads());
  }
}

/// --progress: periodic heartbeat lines from an ObsMonitor.
inline bool select_progress(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--progress") == 0) return true;
  }
  return false;
}


/// One JSON object, built field by field in insertion order.
class JsonObject {
 public:
  JsonObject& set(const char* key, const std::string& v) {
    return raw(key, "\"" + escape(v) + "\"");
  }
  JsonObject& set(const char* key, const char* v) {
    return set(key, std::string(v));
  }
  JsonObject& set(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return raw(key, buf);
  }
  JsonObject& set(const char* key, std::size_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& set(const char* key, int v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& set(const char* key, unsigned v) {
    return raw(key, std::to_string(v));
  }
  /// Nested object / array / preformatted literal.
  JsonObject& raw(const char* key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }

  std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Adds the standard job-accounting fields to a bench JSON row.
inline JsonObject& add_jobs_fields(JsonObject& row, unsigned jobs_used) {
  return row.set("jobs", jobs_used)
      .set("hardware_concurrency", hardware_threads())
      .raw("jobs_oversubscribed",
           jobs_oversubscribed(jobs_used) ? "true" : "false");
}

/// Collects one JSON record per circuit and writes them as an array.  With an
/// empty path every call is a no-op, so benches can emit unconditionally.
class JsonReport {
 public:
  explicit JsonReport(std::string path) : path_(std::move(path)) {}

  void add(const JsonObject& row) {
    if (!path_.empty()) rows_.push_back(row.render());
  }

  /// Writes the array; returns false (with a message) on I/O failure.
  bool write() const {
    if (path_.empty()) return true;
    std::ofstream os(path_);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    os << "[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      os << "  " << rows_[i] << (i + 1 < rows_.size() ? ",\n" : "\n");
    }
    os << "]\n";
    std::printf("wrote %s (%zu records)\n", path_.c_str(), rows_.size());
    return true;
  }

 private:
  std::string path_;
  std::vector<std::string> rows_;
};

/// One fully prepared circuit: netlist + TPI scan design + scan-mode model.
struct Prepared {
  SuiteEntry entry;
  Netlist nl;
  std::size_t base_gates = 0;  ///< mapped gates before DFT insertion
  ScanDesign design;
  TpiStats tpi_stats;
  std::unique_ptr<Levelizer> lv;
  std::unique_ptr<ScanModeModel> model;
  std::vector<Fault> faults;
};

inline Prepared prepare(const SuiteEntry& e) {
  Prepared p;
  p.entry = e;
  p.nl = build_suite_circuit(e);
  p.base_gates = p.nl.num_gates();
  TpiOptions topt;
  topt.num_chains = e.chains;
  p.design = run_tpi(p.nl, topt, &p.tpi_stats);
  p.lv = std::make_unique<Levelizer>(p.nl);
  p.model = std::make_unique<ScanModeModel>(*p.lv, p.design);
  p.faults = collapsed_fault_list(p.nl);
  return p;
}

}  // namespace fsct::benchtool
