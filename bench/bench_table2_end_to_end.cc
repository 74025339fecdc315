// Reproduces **Table 2**: aggregated end-to-end comparison of DP-Timer,
// DP-ANT, OTM, EP and NM on both datasets — average query error (L1,
// relative, improvement over OTM), average execution times (Transform,
// Shrink, QET, improvements over NM and EP) and materialized view sizes.
//
// Paper reference points (shape, not absolute values — see README.md):
//   * DP relative errors < 0.05, OTM relative error ~1, EP/NM exact;
//   * QET: DP << EP << NM, with >= 7800x improvement of DP over NM;
//   * view size: DP ~100-300x smaller than EP.
//
// The five strategies of a dataset run concurrently (one deployment each,
// like the paper's single-deployment table) via RunConfigSweep.

#include "bench/bench_common.h"

using namespace incshrink;
using namespace incshrink::bench;

namespace {

constexpr Strategy kStrategies[] = {Strategy::kDpTimer, Strategy::kDpAnt,
                                    Strategy::kOtm, Strategy::kEp,
                                    Strategy::kNm};

void RunDataset(const DatasetSpec& spec) {
  std::vector<SweepPoint> points;
  for (const Strategy s : kStrategies) {
    points.push_back({StrategyName(s), WithStrategy(spec.config, s),
                      &spec.workload, /*num_seeds=*/1});
  }
  const std::vector<AveragedRun> rows = RunConfigSweep(points);
  const AveragedRun& timer = rows[0];
  const AveragedRun& ant = rows[1];
  const AveragedRun& otm = rows[2];
  const AveragedRun& ep = rows[3];
  const AveragedRun& nm = rows[4];

  std::printf("\n--- %s (%llu steps, %llu true pairs) ---\n",
              spec.name.c_str(),
              static_cast<unsigned long long>(spec.workload.steps()),
              static_cast<unsigned long long>(
                  spec.workload.total_view_entries));
  std::printf("%-28s %12s %12s %10s %10s %10s\n", "metric", "DP-Timer",
              "DP-ANT", "OTM", "EP", "NM");

  std::printf("%-28s %12.2f %12.2f %10.2f %10.2f %10.2f\n", "Avg L1 error",
              timer.l1_error, ant.l1_error, otm.l1_error, ep.l1_error,
              nm.l1_error);
  std::printf("%-28s %12.3f %12.3f %10.3f %10.3f %10.3f\n",
              "Relative error", timer.relative_error, ant.relative_error,
              otm.relative_error, ep.relative_error, nm.relative_error);
  std::printf("%-28s %12s %12s %10s %10s %10s\n", "Error imp. (vs OTM)",
              FormatImprovement(otm.l1_error /
                                std::max(1e-9, timer.l1_error))
                  .c_str(),
              FormatImprovement(otm.l1_error / std::max(1e-9, ant.l1_error))
                  .c_str(),
              "1x", "-", "-");

  std::printf("%-28s %12.3f %12.3f %10s %10.3f %10s\n",
              "Avg Transform time (s)", timer.transform_seconds,
              ant.transform_seconds, "N/A", ep.transform_seconds, "N/A");
  std::printf("%-28s %12.3f %12.3f %10s %10s %10s\n", "Avg Shrink time (s)",
              timer.shrink_seconds, ant.shrink_seconds, "N/A", "N/A", "N/A");
  std::printf("%-28s %12.4f %12.4f %10.4f %10.4f %10.2f\n", "Avg QET (s)",
              timer.qet_seconds, ant.qet_seconds, otm.qet_seconds,
              ep.qet_seconds, nm.qet_seconds);
  std::printf("%-28s %12s %12s %10s %10s %10s\n", "QET imp. (over NM)",
              FormatImprovement(nm.qet_seconds / timer.qet_seconds).c_str(),
              FormatImprovement(nm.qet_seconds / ant.qet_seconds).c_str(),
              "-", FormatImprovement(nm.qet_seconds / ep.qet_seconds).c_str(),
              "1x");
  std::printf("%-28s %12s %12s %10s %10s %10s\n", "QET imp. (over EP)",
              FormatImprovement(ep.qet_seconds / timer.qet_seconds).c_str(),
              FormatImprovement(ep.qet_seconds / ant.qet_seconds).c_str(),
              "-", "1x", "N/A");

  std::printf("%-28s %12.3f %12.3f %10.3f %10.3f %10s\n",
              "Avg view size (MB)", timer.view_mb, ant.view_mb, otm.view_mb,
              ep.view_mb, "N/A");
  std::printf("%-28s %12s %12s %10s %10s %10s\n", "View size imp. (vs EP)",
              FormatImprovement(ep.view_mb / std::max(1e-9, timer.view_mb))
                  .c_str(),
              FormatImprovement(ep.view_mb / std::max(1e-9, ant.view_mb))
                  .c_str(),
              FormatImprovement(ep.view_mb / std::max(1e-9, otm.view_mb))
                  .c_str(),
              "1x", "N/A");
  std::printf("%-28s %12.0f %12.0f %10.0f %10.0f %10.0f\n", "View updates",
              timer.updates, ant.updates, otm.updates, ep.updates,
              nm.updates);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  PrintHeader(
      "Table 2: end-to-end comparison (DP protocols vs OTM / EP / NM)");
  RunDataset(MakeTpcDs(opt.steps_tpcds));
  RunDataset(MakeCpdb(opt.steps_cpdb));
  return 0;
}
