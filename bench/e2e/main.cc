// End-to-end benchmark program: runs one workload in this process and prints
// every metric as a `workload metric value unit` line, then one JSON object
// as the last line of standard output.
//
//   e2e_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--trace-out PATH]
//
// The workload runs fresh repetitions: at least 3, at most 10, as many as
// start within --seconds. Every repetition does the same work (a gate checks
// the result fingerprints), so each step's time is taken as its minimum over
// the repetitions before the step percentiles and the throughput are
// computed: interference from the host only ever adds time, and it rarely
// hits the same step in every repetition. With --trace 1 three traced
// repetitions follow, and the per-layer metrics of the fastest replace the
// end-to-end ones.
// Exit status 1 means a correctness gate failed; 2 means bad arguments.

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "bench/e2e/harness.h"

using namespace incshrink;
using namespace incshrink::e2e;

namespace {

constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 10;
/// Set-up takes micro- or nanoseconds, so it is sampled many times.
constexpr size_t kSetupSamplesPerRep = 20;
/// A percentile is reported only with this many samples beyond it.
constexpr size_t kMinBeyond = 10;

struct Args {
  std::string workload;
  uint64_t seed = 2022;
  double seconds = 15;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: e2e_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--trace-out PATH]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("flag " + flag + " is missing its value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) Usage("--trace takes 0 or 1");
    } else {
      Usage("unrecognized flag " + flag);
    }
    if (end != nullptr && (end == v || *end != '\0')) {
      Usage("flag " + flag + " has a non-numeric value");
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, or false when fewer than kMinBeyond samples lie
/// beyond it.
bool Percentile(std::vector<double> v, uint32_t pct, double* out) {
  const size_t n = v.size();
  const size_t rank = std::max<size_t>(1, (pct * n + 99) / 100);
  if (n == 0 || n - rank < kMinBeyond) return false;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  *out = v[rank - 1];
  return true;
}

/// Returns freed heap to the kernel and resets the kernel's peak-RSS mark,
/// so the next PeakRssMb() reads the peak of what runs in between.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Each step's (or iteration's) minimum over the repetitions.
std::vector<double> FastestPerStep(const std::vector<RepResult>& reps,
                                   std::vector<double> RepResult::*series) {
  size_t n = std::numeric_limits<size_t>::max();
  for (const RepResult& r : reps) n = std::min(n, (r.*series).size());
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  for (const RepResult& r : reps) {
    for (size_t t = 0; t < n; ++t) best[t] = std::min(best[t], (r.*series)[t]);
  }
  return best;
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Collects metrics in print order and renders the final JSON line.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    std::printf("%s %s %s %s%s%s\n", workload_.c_str(), name.c_str(),
                Num(value).c_str(), unit.c_str(), note.empty() ? "" : "  ",
                note.c_str());
    if (!json_.empty()) json_ += ", ";
    json_ += "\"" + name + "\": {\"value\": " + Num(value) + ", \"unit\": \"" +
             unit + "\"}";
  }

  /// A wall-clock metric, with the same quantity computed per repetition
  /// (median, min, max) beside it for comparison.
  void AddWithReps(const std::string& name, double value,
                   const std::vector<double>& per_rep, const std::string& unit,
                   const std::string& note) {
    const auto [lo, hi] = std::minmax_element(per_rep.begin(), per_rep.end());
    Add(name, value, unit,
        "(" + note + "; per repetition median " + Num(Median(per_rep)) +
            " min " + Num(*lo) + " max " + Num(*hi) + " over " +
            std::to_string(per_rep.size()) + ")");
  }

  /// Percentile `pct` of the fastest-per-step latencies; omitted with a named
  /// warning when fewer than kMinBeyond samples lie beyond it.
  void AddPercentile(const std::string& name, const std::vector<RepResult>& reps,
                     uint32_t pct, const std::string& unit) {
    const std::vector<double> best = FastestPerStep(reps, &RepResult::step_ms);
    double value = 0;
    if (!Percentile(best, pct, &value)) {
      std::printf("warning: %s %s omitted: %zu samples, fewer than %zu beyond "
                  "p%u\n",
                  workload_.c_str(), name.c_str(), best.size(), kMinBeyond,
                  pct);
      return;
    }
    std::vector<double> per_rep;
    for (const RepResult& r : reps) {
      double v = 0;
      Percentile(r.step_ms, pct, &v);
      per_rep.push_back(v);
    }
    AddWithReps(name, value, per_rep, unit,
                "n=" + std::to_string(best.size()));
  }

  void Info(const std::string& key, const std::string& value) {
    std::printf("%s info %s %s\n", workload_.c_str(), key.c_str(),
                value.c_str());
  }

  void PrintJson(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), json_.c_str());
  }

 private:
  std::string workload_;
  std::string json_;
};

void ReportEndToEnd(const std::vector<RepResult>& reps,
                    const std::vector<double>& setup, Report* out) {
  const double steps = static_cast<double>(reps[0].steps);
  std::vector<double> steps_per_s;
  std::vector<double> rss;
  for (const RepResult& r : reps) {
    steps_per_s.push_back(steps / r.loop_s);
    rss.push_back(r.peak_rss_mb);
  }
  out->Add("setup_s", Median(setup), "s",
           "(median of " + std::to_string(setup.size()) + " set-ups)");
  const double loop_ms = Sum(FastestPerStep(reps, &RepResult::iter_ms));
  out->AddWithReps("steps_per_s", steps / (loop_ms * 1e-3), steps_per_s,
                   "steps/s", Num(steps) + " steps");
  out->AddPercentile("step_ms_p50", reps, 50, "ms");
  out->AddPercentile("step_ms_p97", reps, 97, "ms");
  out->Add("peak_rss_mb", Median(rss), "MB",
           "(median over repetitions)");
  out->Info("rel_error", Num(reps[0].rel_error));
  out->Info("view_mb", Num(reps[0].view_mb));
}

/// Per-layer self time (span minus the child spans inside it), in seconds.
std::vector<double> LayerSelfSeconds(const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<double> self(static_cast<size_t>(Layer::kCount), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    self[static_cast<size_t>(spans[i].layer)] += static_cast<double>(
        spans[i].end_ns - spans[i].start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void ReportPerLayer(const RepResult& traced, const std::vector<Span>& spans,
                    double untraced_loop_s, Report* out) {
  const std::vector<double> self = LayerSelfSeconds(spans);
  const auto busy = [&](Layer l) { return self[static_cast<size_t>(l)]; };
  const auto pct = [&](double s) { return 100.0 * s / traced.loop_s; };
  const LayerCounts& c = traced.layers;
  const auto count = [&](const std::string& name, uint64_t v,
                         const char* unit = "count") {
    out->Add(name, static_cast<double>(v), unit);
  };

  out->Add("owner.self_pct", pct(busy(Layer::kOwner)), "%");
  count("owner.frames", c.owner_frames);
  count("owner.rows", c.owner_rows);
  count("owner.bytes", c.owner_bytes, "bytes");
  count("owner.backpressure", c.owner_backpressure);

  out->Add("net.self_pct", pct(busy(Layer::kNet)), "%");
  count("net.polls", c.net_polls);
  out->Add("net.polls_per_frame",
           Ratio(static_cast<double>(c.net_polls),
                 static_cast<double>(c.net_frames_delivered)),
           "ratio");
  count("net.frames_delivered", c.net_frames_delivered);
  count("net.frames_rejected", c.net_frames_rejected);
  count("net.bytes_received", c.net_bytes_received, "bytes");

  out->Add("engine.begin.self_pct", pct(busy(Layer::kBegin)), "%");
  count("engine.begin.and_gates", c.begin_cost.and_gates);
  count("engine.begin.bytes", c.begin_cost.bytes, "bytes");
  count("engine.begin.rounds", c.begin_cost.rounds);
  count("engine.begin.frames_drained", c.begin_frames_drained);

  out->Add("sync_sort.self_pct", pct(busy(Layer::kSort)), "%");
  count("sync_sort.jobs", c.sort_jobs);
  count("sync_sort.rows", c.sort_rows);
  count("sync_sort.and_gates", c.sort_cost.and_gates);
  out->Add("sync_sort.gates_per_s",
           Ratio(static_cast<double>(c.sort_cost.and_gates),
                 busy(Layer::kSort)),
           "AND/s");

  out->Add("engine.finish.self_pct", pct(busy(Layer::kFinish)), "%");
  count("engine.finish.and_gates", c.finish_cost.and_gates);
  count("engine.finish.flushes", c.finish_flushes);

  out->Add("analyst.self_pct", pct(busy(Layer::kAnalyst)), "%");
  count("analyst.queries", c.queries);
  out->Add("analyst.queries_per_s",
           Ratio(static_cast<double>(c.queries), busy(Layer::kAnalyst)),
           "1/s");
  count("analyst.rows_scanned", c.query_rows_scanned);
  count("analyst.and_gates", c.query_cost.and_gates);

  const double save_s = busy(Layer::kCheckpointSave);
  out->Add("checkpoint.self_pct",
           pct(save_s + busy(Layer::kCheckpointRestore)), "%");
  count("checkpoint.saves", c.checkpoint_blob_bytes.size());
  count("checkpoint.restores", c.checkpoint_restores);
  std::vector<double> blob_kb;
  for (const uint64_t b : c.checkpoint_blob_bytes) {
    blob_kb.push_back(static_cast<double>(b) / 1024.0);
  }
  out->Add("checkpoint.blob_kb_p50", blob_kb.empty() ? 0 : Median(blob_kb),
           "KB");
  out->Add("checkpoint.save_mb_per_s",
           Ratio(Sum(blob_kb) / 1024.0, save_s), "MB/s");

  out->Add("fleet.self_pct", pct(busy(Layer::kFleet)), "%");
  count("fleet.rounds", c.fleet_rounds);
  out->Add("fleet.fused_jobs_per_submission",
           Ratio(static_cast<double>(c.fleet_fused_jobs),
                 static_cast<double>(c.fleet_fused_submissions)),
           "ratio");
  count("fleet.max_queue_depth", c.fleet_max_queue_depth, "frames");
  count("fleet.gap_p99_rounds", c.fleet_gap_p99, "rounds");
  out->Add("fleet.jain", c.fleet_jain, "ratio");

  const char* kKernels[] = {"cmpx", "cmpx_lex", "mux_swap", "count_where"};
  for (size_t k = 0; k < 4; ++k) {
    const std::string p = std::string("mpc.") + kKernels[k];
    count(p + ".ops", c.mpc[k].ops);
    count(p + ".and_gates", c.mpc[k].and_gates);
    count(p + ".batches", c.mpc[k].batches);
  }

  double covered = 0;
  for (size_t l = 0; l < self.size(); ++l) {
    if (static_cast<Layer>(l) != Layer::kStep) covered += self[l];
  }
  out->Add("trace.coverage_pct", pct(covered), "%");
  out->Add("trace.overhead_pct",
           100.0 * (traced.loop_s / untraced_loop_s - 1.0), "%");
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kStep: return "step";
    case Layer::kOwner: return "owner";
    case Layer::kNet: return "net";
    case Layer::kBegin: return "engine.begin";
    case Layer::kSort: return "sync_sort";
    case Layer::kFinish: return "engine.finish";
    case Layer::kAnalyst: return "analyst";
    case Layer::kCheckpointSave: return "checkpoint.save";
    case Layer::kCheckpointRestore: return "checkpoint.restore";
    case Layer::kFleet: return "fleet";
    case Layer::kCount: break;
  }
  return "?";
}

/// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
bool WriteChromeTrace(const std::string& path, const std::string& workload,
                      const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"step\": %llu}}\n",
                 i == 0 ? "" : ",", LayerName(s.layer), workload.c_str(),
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent, static_cast<unsigned long long>(s.step));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed, args.smoke);
  if (workload == nullptr) Usage("unknown workload " + args.workload);
  Report report(args.workload);
  std::string gate_error;

  std::vector<RepResult> reps;
  std::vector<double> setup;
  const int64_t start = NowNs();
  const double budget_ns = args.seconds * 1e9;
  while (reps.size() < kMinReps ||
         (reps.size() < kMaxReps &&
          static_cast<double>(NowNs() - start) < budget_ns)) {
    Tracer off(false);
    ResetPeakRss();
    reps.push_back(workload->Run(&off));
    reps.back().peak_rss_mb = PeakRssMb();
    setup.push_back(reps.back().setup_s);
    // Extra set-up samples after every repetition, so they spread over the
    // run like the repetitions do.
    for (size_t k = 0; k < kSetupSamplesPerRep && gate_error.empty(); ++k) {
      const Result<double> s = workload->SetupOnly();
      if (s.ok()) {
        setup.push_back(*s);
      } else {
        gate_error = "set-up failed: " + s.status().ToString();
      }
    }
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> loop_s;
  for (size_t r = 0; r < reps.size(); ++r) {
    attempted += reps[r].attempted;
    failed += reps[r].failed;
    loop_s.push_back(reps[r].loop_s);
    if (gate_error.empty() && !reps[r].gate_error.empty()) {
      gate_error = reps[r].gate_error;
    }
    if (gate_error.empty() && reps[r].fingerprint != reps[0].fingerprint) {
      gate_error = "repetition " + std::to_string(r) + " fingerprint " +
                   Hex(reps[r].fingerprint) + " differs from repetition 0";
    }
  }
  if (gate_error.empty()) {
    gate_error = workload->ReferenceGate(reps[0].fingerprint);
  }
  report.Info("fingerprint", Hex(reps[0].fingerprint));
  report.Info("reps", std::to_string(reps.size()));

  if (!args.trace) {
    ReportEndToEnd(reps, setup, &report);
  } else {
    // The fastest of kMinReps traced repetitions is reported and compared
    // with the fastest untraced one, so host interference skews neither.
    RepResult traced;
    Tracer kept(true);
    for (size_t r = 0; r < kMinReps; ++r) {
      Tracer tracer(true);
      RepResult rep = workload->Run(&tracer);
      attempted += rep.attempted;
      failed += rep.failed;
      if (gate_error.empty() && rep.fingerprint != reps[0].fingerprint) {
        gate_error = "traced repetition changed the result fingerprint";
      }
      if (r == 0 || rep.loop_s < traced.loop_s) {
        traced = std::move(rep);
        kept = std::move(tracer);
      }
    }
    ReportPerLayer(traced, kept.spans(),
                   *std::min_element(loop_s.begin(), loop_s.end()), &report);
    if (!args.trace_out.empty()) {
      if (WriteChromeTrace(args.trace_out, args.workload, kept.spans())) {
        report.Info("trace_file", args.trace_out);
      } else {
        gate_error = "cannot write " + args.trace_out;
      }
    }
  }
  if (gate_error.empty() && failed > 0) {
    gate_error = std::to_string(failed) + " operations failed";
  }
  report.Info("gates", gate_error.empty() ? "pass" : "FAIL: " + gate_error);
  report.PrintJson(gate_error.empty(), attempted, failed);
  return gate_error.empty() ? 0 : 1;
}
