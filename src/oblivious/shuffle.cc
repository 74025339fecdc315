#include "src/oblivious/shuffle.h"

#include <algorithm>

#include "src/common/logging.h"

namespace incshrink {

namespace {

/// Switch count of the n-wire AS-Waksman block: floor(n/2) input switches,
/// floor(n/2) output switches minus one straight pair when n is even, plus
/// the two recursive subnets (n*log2(n) - n + 1 at powers of two).
uint64_t SwitchesRec(size_t n) {
  if (n < 2) return 0;
  if (n == 2) return 1;
  const size_t half = n / 2;
  const uint64_t out_pairs = (n % 2 == 0) ? half - 1 : half;
  return half + out_pairs + SwitchesRec(half) + SwitchesRec(n - half);
}

/// Depth of the n-wire block: input column + deepest subnet + output
/// column. The bottom subnet (ceil(n/2) wires) is always the deeper one.
uint64_t DepthRec(size_t n) {
  if (n < 2) return 0;
  if (n == 2) return 1;
  return 2 + DepthRec(n - n / 2);
}

/// Routing scratch of one recursion depth of a WaksmanNetwork call. Blocks
/// of one depth are routed one after another, and a block's arrays are
/// read again only after its two subnets (one depth deeper) return, so one
/// set per depth, sized for that depth's widest block, serves every block.
struct RouteScratch {
  explicit RouteScratch(size_t n)
      : inv(n), color(n), sub_pos(n), sub_perm(n) {
    frontier.reserve(n);
  }

  std::vector<uint32_t> inv;       ///< inv[x] = output index where input x exits
  std::vector<int8_t> color;       ///< subnet of each output (or unset)
  std::vector<uint32_t> frontier;  ///< propagation stack
  std::vector<uint32_t> sub_pos;   ///< top subnet slots, then bottom's
  std::vector<uint32_t> sub_perm;  ///< top sub-permutation, then bottom's
};

/// Routes one n-wire AS-Waksman block over the physical row slots
/// pos[0..n), realizing slot[k] = old slot[perm[k]] (both indices local to
/// the block), and appends its programmed switches into layers
/// [base, base + DepthRec(n)). `scratch` is this depth's RouteScratch;
/// subnets use scratch + 1. Wire plan (the block operates in place):
///
///   * input switch i pairs slots (2i, 2i+1); its even output is wire i of
///     the top subnet (the even slots), its odd output wire i of the bottom
///     subnet (the odd slots). When n is odd, input n-1 is a straight wire
///     into bottom wire floor(n/2).
///   * output switch j pairs slots (2j, 2j+1), fed by top wire j and bottom
///     wire j. When n is even the last pair is straight (output n-2 from
///     the top, n-1 from the bottom) — that fixed pair is what makes the
///     network complete with one switch fewer per even block.
///
/// Programming is the classic 2-coloring: label every output Top or Bottom
/// (which subnet its element travels through). The two outputs of one
/// output switch must differ, and so must the two outputs fed by the two
/// sides of one input switch. These "must differ" edges form disjoint
/// paths/cycles, so propagating from the pinned straight wires (and seeding
/// any free component deterministically) always 2-colors the block; a
/// conflict would mean the construction is wrong, so it CHECK-fails loudly.
void RouteBlock(const uint32_t* pos, const uint32_t* perm, size_t n,
                size_t base, RouteScratch* scratch,
                std::vector<std::vector<ProgrammedSwitch>>* layers) {
  if (n < 2) return;
  if (n == 2) {
    (*layers)[base].push_back({{pos[0], pos[1]}, perm[0] == 1});
    return;
  }
  const size_t half = n / 2;  // top subnet width; bottom is n - half
  const size_t out_pairs = (n % 2 == 0) ? half - 1 : half;

  uint32_t* inv = scratch->inv.data();
  for (size_t k = 0; k < n; ++k) inv[perm[k]] = static_cast<uint32_t>(k);

  constexpr int8_t kUnset = -1;
  constexpr int8_t kTop = 0;
  constexpr int8_t kBottom = 1;
  int8_t* color = scratch->color.data();
  std::fill_n(color, n, kUnset);
  std::vector<uint32_t>& frontier = scratch->frontier;
  auto pin = [&](size_t k, int8_t c) {
    if (color[k] == kUnset) {
      color[k] = c;
      frontier.push_back(static_cast<uint32_t>(k));
    }
    INCSHRINK_CHECK_EQ(color[k], c);
  };
  auto propagate = [&]() {
    while (!frontier.empty()) {
      const uint32_t k = frontier.back();
      frontier.pop_back();
      const int8_t other = color[k] == kTop ? kBottom : kTop;
      if (k < 2 * out_pairs) pin(k ^ 1, other);    // output-switch partner
      const uint32_t in = perm[k];
      if (in < 2 * half) pin(inv[in ^ 1], other);  // input-switch partner
    }
  };
  if (n % 2 == 0) {
    pin(n - 2, kTop);  // straight last pair: n-2 from top, n-1 from bottom
    propagate();
    pin(n - 1, kBottom);
    propagate();
  } else {
    pin(n - 1, kBottom);  // output n-1 is hard-wired to the bottom subnet
    propagate();
    pin(inv[n - 1], kBottom);  // and so is the straight input n-1
    propagate();
  }
  for (size_t k = 0; k < n; ++k) {
    if (color[k] == kUnset) {
      pin(k, kTop);  // free cycle: fixed deterministic choice
      propagate();
    }
  }

  // Input column: switch i crosses iff input 2i must reach the bottom.
  for (size_t i = 0; i < half; ++i) {
    (*layers)[base].push_back(
        {{pos[2 * i], pos[2 * i + 1]}, color[inv[2 * i]] == kBottom});
  }

  // Subnet slot maps and sub-permutations over subnet wires: the top
  // subnet's in [0, half), the bottom's in [half, n).
  const size_t bot_n = n - half;
  uint32_t* top_pos = scratch->sub_pos.data();
  uint32_t* top_perm = scratch->sub_perm.data();
  uint32_t* bot_pos = top_pos + half;
  uint32_t* bot_perm = top_perm + half;
  for (size_t i = 0; i < half; ++i) {
    top_pos[i] = pos[2 * i];
    bot_pos[i] = pos[2 * i + 1];
  }
  if (n % 2 != 0) bot_pos[half] = pos[n - 1];
  for (size_t k = 0; k < n; ++k) {
    const uint32_t out_wire = static_cast<uint32_t>(k / 2);
    const uint32_t in = perm[k];
    if (color[k] == kTop) {
      top_perm[out_wire] = in / 2;
    } else {
      bot_perm[out_wire] = (n % 2 != 0 && in == n - 1)
                               ? static_cast<uint32_t>(half)
                               : in / 2;
    }
  }

  RouteBlock(top_pos, top_perm, half, base + 1, scratch + 1, layers);
  RouteBlock(bot_pos, bot_perm, bot_n, base + 1, scratch + 1, layers);

  // Output column, after the deeper (bottom) subnet's last layer.
  const size_t out_base = base + 1 + DepthRec(bot_n);
  for (size_t j = 0; j < out_pairs; ++j) {
    (*layers)[out_base].push_back(
        {{pos[2 * j], pos[2 * j + 1]}, color[2 * j] == kBottom});
  }
}

/// Per-job state of one fused multi-shuffle submission (mirrors JobState in
/// src/oblivious/sort.cc).
struct ShuffleState {
  explicit ShuffleState(const ShuffleJob& j)
      : job(j), cursor(*j.perm),
        mask_words(Protocol2PC::MuxSwapMaskWords(j.rows->width())) {}

  ShuffleJob job;
  ShuffleLayerCursor cursor;
  size_t mask_words;
  std::vector<ProgrammedSwitch> switches;  ///< current layer
  std::vector<Word> masks;  ///< pre-drawn reshares for the current layer
  bool active = true;
};

/// Applies sites [begin, end) of the current layer (pure kernels over
/// pre-drawn masks; switches of a layer touch disjoint rows, so any split
/// is race-free and bit-identical).
void ApplyShuffleRange(const ShuffleState& s, size_t begin, size_t end) {
  const Word* masks = s.masks.data();
  for (size_t p = begin; p < end; ++p) {
    s.job.proto->ApplyMuxSwap(s.job.rows, s.switches[p].pair.a,
                              s.switches[p].pair.b, s.switches[p].swap,
                              masks + p * s.mask_words);
  }
}

/// Serial-round variant: one SerialSites submission per job and layer —
/// same per-proto draw sequence, masks never leave registers.
void ApplyShuffleSitesFused(const ShuffleState& s) {
  Protocol2PC::SerialSites sites(s.job.proto, s.job.rows);
  for (const ProgrammedSwitch& sw : s.switches) {
    sites.MuxSwap(sw.pair.a, sw.pair.b, sw.swap);
  }
}

/// Stable argsort of the recovered (inside the ideal functionality) keys of
/// an already-shuffled table: returns perm with perm[k] = current index of
/// the row that must land at position k. Charges the fixed
/// ShuffleSortComparisons(n) key-comparison budget.
std::vector<uint32_t> ArgsortKeysInside(Protocol2PC* proto,
                                        const SharedRows& rows,
                                        size_t key_col, bool ascending) {
  const size_t n = rows.size();
  std::vector<uint32_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = static_cast<uint32_t>(i);
  std::vector<Word> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = rows.share0_at(i, key_col) ^ rows.share1_at(i, key_col);
  }
  proto->AccountAndGates(ShuffleSortComparisons(n) * kWordBits);
  // Ideal-functionality argsort: the comparison budget is charged above as a
  // fixed function of n, and the outcomes feed only the control bits of the
  // second Waksman pass, whose switch count, layer structure and mask-draw
  // counts are pure functions of n; the observable trace stays
  // input-invariant (tests/shuffle_test.cc pins this).
  std::stable_sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
    return ascending ? keys[a] < keys[b] : keys[b] < keys[a];
  });
  return idx;
}

}  // namespace

std::vector<std::vector<ProgrammedSwitch>> WaksmanNetwork(
    const std::vector<uint32_t>& perm) {
  const size_t n = perm.size();
  std::vector<std::vector<ProgrammedSwitch>> layers(DepthRec(n));
  if (n < 2) return layers;
  std::vector<bool> seen(n, false);
  for (const uint32_t v : perm) {
    INCSHRINK_CHECK_LT(v, n);
    INCSHRINK_CHECK(!seen[v]);
    seen[v] = true;
  }
  // One RouteScratch per depth that routes (blocks wider than 2); a
  // depth's widest block is the bottom subnet, ceil of the one above.
  std::vector<RouteScratch> scratch;
  for (size_t w = n; w > 2; w -= w / 2) scratch.emplace_back(w);
  std::vector<uint32_t> pos(n);
  for (size_t i = 0; i < n; ++i) pos[i] = static_cast<uint32_t>(i);
  RouteBlock(pos.data(), perm.data(), n, 0, scratch.data(), &layers);
  return layers;
}

uint64_t ShuffleNetworkSwitches(size_t n) { return SwitchesRec(n); }

uint64_t ShuffleNetworkDepth(size_t n) { return DepthRec(n); }

std::vector<uint64_t> ShuffleNetworkLayerSizes(size_t n) {
  // Topology is permutation-independent, so the identity network carries
  // the layer structure of every n-row shuffle.
  std::vector<uint32_t> identity(n);
  for (size_t i = 0; i < n; ++i) identity[i] = static_cast<uint32_t>(i);
  std::vector<uint64_t> sizes;
  for (const auto& layer : WaksmanNetwork(identity)) {
    sizes.push_back(layer.size());
  }
  return sizes;
}

std::vector<uint32_t> DrawPublicPermutation(Protocol2PC* proto, size_t n) {
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  if (n < 2) return perm;
  // Fisher-Yates over 64-bit draws assembled from two resharing-stream
  // words per step; the bound reduction is multiply-high, so exactly
  // 2*(n-1) words are consumed for every n — never data-dependent.
  std::vector<Word> raw(2 * (n - 1));
  proto->DrawReshareMasks(raw.size(), raw.data());
  size_t w = 0;
  for (size_t i = n - 1; i > 0; --i) {
    const uint64_t rh = raw[w++];
    const uint64_t rl = raw[w++];
    // High 64 bits of the 96-bit product (rh*2^32 + rl) * (i+1), computed
    // in pieces so it stays within uint64_t: both partials are < 2^64 and
    // their sum is < (i+1)*2^32 <= 2^64.
    const uint64_t m = static_cast<uint64_t>(i) + 1;
    const size_t j =
        static_cast<size_t>((rh * m + ((rl * m) >> 32)) >> 32);
    std::swap(perm[i], perm[j]);
  }
  return perm;
}

void ObliviousShuffle(Protocol2PC* proto, SharedRows* rows,
                      const std::vector<uint32_t>& perm,
                      const BatchExec& exec) {
  ShuffleJob job{proto, rows, &perm};
  ObliviousShuffleBatch(&job, 1, exec);
}

void ObliviousShuffleBatch(ShuffleJob* jobs, size_t num_jobs,
                           const BatchExec& exec) {
  if (num_jobs == 0) return;
  // Each job owns its protocol's resharing stream for the whole submission
  // (same contract as ObliviousSortBatch).
  for (size_t i = 0; i < num_jobs; ++i) {
    INCSHRINK_CHECK(jobs[i].proto != nullptr && jobs[i].rows != nullptr &&
                    jobs[i].perm != nullptr);
    INCSHRINK_CHECK_EQ(jobs[i].perm->size(), jobs[i].rows->size());
    for (size_t j = i + 1; j < num_jobs; ++j) {
      INCSHRINK_CHECK(jobs[i].proto != jobs[j].proto);
    }
  }
  std::vector<ShuffleState> states;
  states.reserve(num_jobs);
  for (size_t i = 0; i < num_jobs; ++i) states.emplace_back(jobs[i]);

  // Lockstep layer rounds, exactly the ObliviousSortBatch discipline:
  // phase 1 emits and accounts each job's layer serially in job order,
  // phase 2 applies the round's sites — one SerialSites run per job, or
  // per-job pre-drawn masks with a cross-job chunked pooled apply.
  while (true) {
    size_t total_sites = 0;
    bool any_active = false;
    for (ShuffleState& s : states) {
      if (!s.active) continue;
      s.active = s.cursor.Next(&s.switches);
      if (!s.active || s.switches.empty()) continue;
      any_active = true;
      s.job.proto->AccountMuxSwapBatch(s.switches.size(),
                                       s.job.rows->width());
      total_sites += s.switches.size();
    }
    if (!any_active) {
      bool live = false;
      for (const ShuffleState& s : states) live = live || s.active;
      if (!live) break;
      continue;  // a round of empty layers; keep draining the cursors
    }

    if (exec.Serial(total_sites)) {
      for (ShuffleState& s : states) {
        if (!s.active || s.switches.empty()) continue;
        ApplyShuffleSitesFused(s);
      }
      continue;
    }
    for (ShuffleState& s : states) {
      if (!s.active || s.switches.empty()) continue;
      s.masks.resize(s.switches.size() * s.mask_words);
      s.job.proto->DrawReshareMasks(s.masks.size(), s.masks.data());
    }
    struct Chunk {
      const ShuffleState* state;
      size_t begin;
      size_t end;
    };
    const size_t chunk_size =
        BatchChunkSize(total_sites, exec.pool->num_threads());
    std::vector<Chunk> chunks;
    for (const ShuffleState& s : states) {
      if (!s.active || s.switches.empty()) continue;
      for (size_t b = 0; b < s.switches.size(); b += chunk_size) {
        chunks.push_back(
            {&s, b, std::min(s.switches.size(), b + chunk_size)});
      }
    }
    exec.pool->ParallelFor(chunks.size(), [&](size_t c) {
      ApplyShuffleRange(*chunks[c].state, chunks[c].begin, chunks[c].end);
    });
  }
}

void ObliviousRandomPermuteBatch(PermuteJob* jobs, size_t num_jobs,
                                 const BatchExec& exec) {
  if (num_jobs == 0) return;
  // Permutation draws run in job order, each from its own protocol stream,
  // then every network executes as one fused submission.
  std::vector<std::vector<uint32_t>> perms(num_jobs);
  std::vector<ShuffleJob> shuffle_jobs(num_jobs);
  for (size_t i = 0; i < num_jobs; ++i) {
    INCSHRINK_CHECK(jobs[i].proto != nullptr && jobs[i].rows != nullptr);
    perms[i] = DrawPublicPermutation(jobs[i].proto, jobs[i].rows->size());
    shuffle_jobs[i] = {jobs[i].proto, jobs[i].rows, &perms[i]};
  }
  ObliviousShuffleBatch(shuffle_jobs.data(), num_jobs, exec);
}

void ObliviousRandomPermute(Protocol2PC* proto, SharedRows* rows,
                            const BatchExec& exec) {
  PermuteJob job{proto, rows};
  ObliviousRandomPermuteBatch(&job, 1, exec);
}

uint64_t ShuffleSortComparisons(size_t n) {
  if (n < 2) return 0;
  uint64_t lg = 0;
  while ((static_cast<size_t>(1) << lg) < n) ++lg;
  return static_cast<uint64_t>(n) * lg;
}

void ObliviousShuffleSortBatch(SortJob* jobs, size_t num_jobs,
                               const BatchExec& exec) {
  if (num_jobs == 0) return;
  for (size_t i = 0; i < num_jobs; ++i) {
    INCSHRINK_CHECK(jobs[i].proto != nullptr && jobs[i].rows != nullptr);
    INCSHRINK_CHECK(!jobs[i].lex);  // shuffle-sort is single-key
    INCSHRINK_CHECK(jobs[i].algorithm == SortAlgorithm::kShuffleSort);
    for (size_t j = i + 1; j < num_jobs; ++j) {
      INCSHRINK_CHECK(jobs[i].proto != jobs[j].proto);
    }
  }
  // Pass 1: random Waksman shuffle (per-job draws in job order, fused
  // execution).
  std::vector<std::vector<uint32_t>> perms(num_jobs);
  std::vector<ShuffleJob> shuffle_jobs(num_jobs);
  for (size_t i = 0; i < num_jobs; ++i) {
    perms[i] = DrawPublicPermutation(jobs[i].proto, jobs[i].rows->size());
    shuffle_jobs[i] = {jobs[i].proto, jobs[i].rows, &perms[i]};
  }
  ObliviousShuffleBatch(shuffle_jobs.data(), num_jobs, exec);
  // Pass 2: Waksman programmed from the stable argsort of the shuffled
  // keys. Ties land in shuffled order — a uniformly random (but seeded,
  // deterministic) placement, which is exactly why the shuffle must come
  // first: the argsort's control bits then reveal nothing about the
  // pre-shuffle arrangement.
  for (size_t i = 0; i < num_jobs; ++i) {
    perms[i] = ArgsortKeysInside(jobs[i].proto, *jobs[i].rows,
                                 jobs[i].key_col, jobs[i].ascending);
  }
  ObliviousShuffleBatch(shuffle_jobs.data(), num_jobs, exec);
}

void ObliviousShuffleSort(Protocol2PC* proto, SharedRows* rows,
                          size_t key_col, bool ascending,
                          const BatchExec& exec) {
  SortJob job{proto,     rows, key_col, 0, /*lex=*/false,
              ascending, SortAlgorithm::kShuffleSort};
  ObliviousShuffleSortBatch(&job, 1, exec);
}

}  // namespace incshrink
