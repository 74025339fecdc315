// Pinned wire bytes: the FNV-1a64 of every byte format the system emits —
// IUF upload frames, ISR1 share blobs, the IUH1 hello and frame envelope,
// ICKP engine, deployment and fleet-tenant snapshots — and of the config
// fingerprint, each at a fixed seed. A refactor of the codecs underneath
// these formats must leave every value here unchanged; a deliberate format
// change updates the value together with the format's version byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/core/config.h"
#include "src/core/fleet.h"
#include "src/core/owner_client.h"
#include "src/net/frame_codec.h"
#include "src/storage/checkpoint.h"
#include "src/storage/serialization.h"
#include "src/workload/generators.h"

namespace incshrink {
namespace {

uint64_t Hash(const std::vector<uint8_t>& bytes) {
  return Fnv1a64(bytes.data(), bytes.size());
}

/// A 7-row, width-5 batch with seeded shares and three plaintext arrivals.
UploadFrame SeededFrame() {
  Rng rng(2022);
  UploadFrame frame;
  frame.owner_step = 41;
  frame.batch = SharedRows(5);
  for (int r = 0; r < 7; ++r) {
    frame.batch.AppendSecretRow({rng.Next32(), rng.Next32(), rng.Next32(),
                                 rng.Next32(), rng.Next32()},
                                &rng);
  }
  for (uint32_t i = 0; i < 3; ++i) {
    frame.arrivals.push_back(LogicalRecord{40 + i, 100 + i, rng.Next32(),
                                           rng.Next32(), rng.Next32()});
  }
  return frame;
}

TEST(WireBytesTest, UploadFrame) {
  EXPECT_EQ(Hash(EncodeUploadFrame(SeededFrame())), 0x7aa2320384a31569ull);
  UploadFrame empty;
  empty.owner_step = 3;
  empty.batch = SharedRows(6);
  EXPECT_EQ(Hash(EncodeUploadFrame(empty)), 0x867ab14ea7df833full);
}

TEST(WireBytesTest, ShareBlobs) {
  const SharedRows rows = SeededFrame().batch;
  EXPECT_EQ(Hash(SerializeShares(rows, 0)), 0xc28da215a5e85a59ull);
  EXPECT_EQ(Hash(SerializeShares(rows, 1)), 0x034787498ca2091full);
}

TEST(WireBytesTest, HelloAndEnvelope) {
  std::vector<uint8_t> stream = EncodeHello(0xA5C3u);
  AppendEnvelope(&stream, 1, EncodeUploadFrame(SeededFrame()));
  AppendEnvelope(&stream, 2, {0x7F});
  EXPECT_EQ(Hash(stream), 0x8115fd165ad4d84aull);
}

constexpr uint64_t kSteps = 40;

TEST(WireBytesTest, TimerEngineCheckpoint) {
  TpcDsParams p;
  p.steps = kSteps;
  p.seed = 11;
  const GeneratedWorkload w = GenerateTpcDs(p);
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.strategy = Strategy::kDpTimer;
  cfg.timer_T = 4;
  cfg.flush_interval = 16;
  cfg.num_cache_shards = 2;
  cfg.cache_shard_threads = 1;
  SynchronousDeployment d(cfg);
  ASSERT_TRUE(d.Run(w.t1, w.t2).ok());
  Result<std::vector<uint8_t>> blob = d.engine().SaveCheckpoint();
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(Hash(*blob), 0x812d4ae42218c216ull);
}

TEST(WireBytesTest, AntShuffleEngineCheckpoint) {
  CpdbParams p;
  p.steps = kSteps;
  p.seed = 12;
  const GeneratedWorkload w = GenerateCpdb(p);
  IncShrinkConfig cfg = DefaultCpdbConfig();
  cfg.strategy = Strategy::kDpAnt;
  cfg.sort_algorithm = SortAlgorithm::kShuffleSort;
  SynchronousDeployment d(cfg);
  ASSERT_TRUE(d.Run(w.t1, w.t2).ok());
  Result<std::vector<uint8_t>> blob = d.engine().SaveCheckpoint();
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(Hash(*blob), 0x3b3ca5f11a8c05f4ull);
}

TEST(WireBytesTest, FleetTenantCheckpoint) {
  TpcDsParams p;
  p.steps = 12;
  p.seed = 13;
  const GeneratedWorkload w = GenerateTpcDs(p);
  std::vector<DeploymentFleet::TenantSpec> specs(2);
  specs[0].name = "timer";
  specs[0].config = DefaultTpcDsConfig();
  specs[0].config.strategy = Strategy::kDpTimer;
  specs[0].config.timer_T = 3;
  specs[0].workload = &w;
  specs[1].name = "ant";
  specs[1].config = DefaultTpcDsConfig();
  specs[1].config.strategy = Strategy::kDpAnt;
  specs[1].config.ant_theta = 6;
  specs[1].workload = &w;
  // Cross-tenant sort fusion is scheduling only: both round cadences pin
  // the same tenant bytes.
  for (const bool coalesce : {false, true}) {
    DeploymentFleet::Options opts;
    opts.root_seed = 5;
    opts.num_threads = 1;
    opts.owner_lead = 2;
    opts.coalesce_sorts = coalesce;
    DeploymentFleet fleet(specs, opts);
    for (int r = 0; r < 6; ++r) fleet.StepAll();
    Result<std::vector<uint8_t>> blob0 = fleet.CheckpointTenant(0);
    Result<std::vector<uint8_t>> blob1 = fleet.CheckpointTenant(1);
    ASSERT_TRUE(blob0.ok());
    ASSERT_TRUE(blob1.ok());
    EXPECT_EQ(Hash(*blob0), 0x584714e446727790ull) << "coalesce " << coalesce;
    EXPECT_EQ(Hash(*blob1), 0xdd1a2af732592d94ull) << "coalesce " << coalesce;
  }
}

TEST(WireBytesTest, DeploymentCheckpoint) {
  // The whole-deployment envelope under the DP-ANT upload policy, with
  // records still queued on both owners: the SVT branch of the owner
  // sections and the queued records are in the bytes.
  TpcDsParams p;
  p.steps = 24;
  p.seed = 14;
  const GeneratedWorkload w = GenerateTpcDs(p);
  IncShrinkConfig cfg = DefaultTpcDsConfig();
  cfg.strategy = Strategy::kDpTimer;
  cfg.timer_T = 4;
  for (UploadPolicyConfig* policy :
       {&cfg.upload_policy1, &cfg.upload_policy2}) {
    policy->kind = UploadPolicyKind::kDpAntSync;
    policy->eps_sync = 1.0;
    policy->sync_theta = 12;
  }
  SynchronousDeployment d(cfg);
  ASSERT_TRUE(d.Run(w.t1, w.t2).ok());
  ASSERT_GT(d.owner1().pending(), 0u);
  ASSERT_GT(d.owner2().pending(), 0u);
  Result<std::vector<uint8_t>> blob = d.SaveCheckpoint();
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(Hash(*blob), 0x3c6021bb414f7f0cull);
}

TEST(WireBytesTest, ConfigFingerprint) {
  EXPECT_EQ(ConfigFingerprint(IncShrinkConfig{}), 0x4adf1671ff071642ull);
}

}  // namespace
}  // namespace incshrink
