// --json support for the bench_* binaries.
//
// Every bench accepts `--json <path>` (or `--json=<path>`) and, when given,
// writes its headline numbers as a JSON document the CI can archive and diff
// across commits (the human-readable stdout report is unchanged). The
// convention is one record per measurement:
//
//   { "bench": "<name>",
//     "meta": { "git": "<describe>", "threads": 8 },
//     "results": [
//       { "workload": "...", "metric": "...", "value": 1.23,
//         "baseline": 4.56 },   // "baseline" only when a comparison exists
//       ... ] }
//
// The meta block pins what produced the numbers: the source revision
// (SOFTBORG_GIT_DESCRIBE, stamped by bench/CMakeLists.txt at configure
// time) and the host's hardware thread count — the two axes along which
// archived bench numbers are otherwise incomparable.
//
// The flag is stripped from argv before the writer returns, so argument
// parsers that reject unknown flags (google-benchmark's Initialize) never
// see it. Canonical output name: BENCH_<name>.json.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#ifndef SOFTBORG_GIT_DESCRIBE
#define SOFTBORG_GIT_DESCRIBE "unknown"
#endif

namespace softborg {

class BenchJsonWriter {
 public:
  // `name` is the bench's short name ("e1_coverage_growth"); argv is scanned
  // for the flag and compacted in place.
  BenchJsonWriter(std::string name, int& argc, char** argv)
      : name_(std::move(name)) {
    int w = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json" && i + 1 < argc) {
        path_ = argv[++i];
      } else if (arg.rfind("--json=", 0) == 0) {
        path_ = arg.substr(7);
      } else {
        argv[w++] = argv[i];
      }
    }
    argc = w;
    if (path_ == "-") path_ = "BENCH_" + name_ + ".json";
  }

  bool enabled() const { return !path_.empty(); }

  void add(const std::string& workload, const std::string& metric,
           double value) {
    results_.push_back({workload, metric, value, 0.0, false});
  }
  void add(const std::string& workload, const std::string& metric,
           double value, double baseline) {
    results_.push_back({workload, metric, value, baseline, true});
  }

  // Writes the document (no-op when --json was not given). Returns false on
  // I/O failure.
  bool write() const {
    if (!enabled()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", escape(name_).c_str());
    std::fprintf(f,
                 "  \"meta\": {\"git\": \"%s\", \"threads\": %u},\n",
                 escape(SOFTBORG_GIT_DESCRIBE).c_str(),
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"results\": [");
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const Result& r = results_[i];
      std::fprintf(f, "%s\n    {\"workload\": \"%s\", \"metric\": \"%s\", ",
                   i == 0 ? "" : ",", escape(r.workload).c_str(),
                   escape(r.metric).c_str());
      std::fprintf(f, "\"value\": %s", number(r.value).c_str());
      if (r.has_baseline) {
        std::fprintf(f, ", \"baseline\": %s", number(r.baseline).c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Result {
    std::string workload;
    std::string metric;
    double value = 0.0;
    double baseline = 0.0;
    bool has_baseline = false;
  };

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) c = ' ';
      out.push_back(c);
    }
    return out;
  }

  // JSON has no NaN/Inf; clamp them to null-ish zero with a lost-value flag
  // kept out of scope (benches never emit them in practice).
  static std::string number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  std::string name_;
  std::string path_;
  std::vector<Result> results_;
};

}  // namespace softborg
