#include "src/oblivious/sort.h"

#include <algorithm>
#include <bit>

#include "src/common/logging.h"
#include "src/oblivious/shuffle.h"

namespace incshrink {

namespace {

/// Visits every compare-exchange (a, b) of one layer — one (p, k) pass —
/// of Batcher's odd-even merge network for n rows, in scalar execution
/// order. This is the single definition of the network's index math
/// (including the same-2p-block guard): the scalar reference path, the
/// layer cursor and the serial fast path all funnel through it, so the
/// batched/scalar bit-equality contract has exactly one loop nest to keep
/// correct. p is always a power of two, so the block guard
/// `a / (2p) == b / (2p)` is a shift rather than a division per pair.
template <typename Visitor>
void VisitLayerPairs(size_t n, size_t p, size_t k, Visitor&& visit) {
  const int block_shift = std::countr_zero(p) + 1;
  for (size_t j = k % p; j + k < n; j += 2 * k) {
    for (size_t i = 0; i < k; ++i) {
      const size_t a = i + j;
      const size_t b = i + j + k;
      if (b >= n) break;
      if ((a >> block_shift) == (b >> block_shift)) visit(a, b);
    }
  }
}

/// Steps the (p, k) layer state machine to the next pass; returns false
/// when the network (for n rows) is exhausted. Layer order: (1,1), (2,2),
/// (2,1), (4,4), (4,2), (4,1), ...
bool AdvanceLayer(size_t n, size_t* p, size_t* k) {
  if (*k > 1) {
    *k >>= 1;
    return true;
  }
  *p <<= 1;
  if (*p >= n) return false;
  *k = *p;
  return true;
}

/// Visits every compare-exchange of the whole network, in execution order
/// (scalar reference order).
template <typename Visitor>
void ForEachCompareExchange(size_t n, Visitor&& visit) {
  if (n < 2) return;
  size_t p = 1;
  size_t k = 1;
  do {
    VisitLayerPairs(n, p, k, visit);
  } while (AdvanceLayer(n, &p, &k));
}

/// Enumerates the network one layer at a time. Within a layer every row
/// index appears in at most one pair: the j-blocks cover disjoint index
/// windows [j, j + 2k), so a layer is exactly the unit that can be
/// submitted as one batched compare-exchange call. Pairs are emitted in
/// the scalar visit order, which is what keeps the batched resharing-mask
/// sequence aligned with the per-op path.
class LayerCursor {
 public:
  explicit LayerCursor(size_t n) : n_(n), done_(n < 2) {}

  /// Fills `out` with the next layer's pairs; returns false when the
  /// network is exhausted. Layers are never empty for n >= 2 except
  /// possibly at tail guards; empty layers are emitted as empty vectors.
  bool Next(std::vector<RowPair>* out) {
    out->clear();
    if (done_) return false;
    VisitLayerPairs(n_, p_, k_, [out](size_t a, size_t b) {
      out->push_back({static_cast<uint32_t>(a), static_cast<uint32_t>(b)});
    });
    done_ = !AdvanceLayer(n_, &p_, &k_);
    return true;
  }

 private:
  size_t n_;
  size_t p_ = 1;
  size_t k_ = 1;
  bool done_;
};

/// Per-job state of one fused multi-sort submission.
struct JobState {
  explicit JobState(const SortJob& j)
      : job(j), cursor(j.rows->size()), mask_words(Protocol2PC::
            CompareExchangeMaskWords(j.rows->width())) {}

  SortJob job;
  LayerCursor cursor;
  size_t mask_words;
  std::vector<RowPair> pairs;  ///< current layer, scalar visit order
  std::vector<Word> masks;     ///< pre-drawn reshares for the current layer
  bool active = true;
};

/// Applies sites [begin, end) of `state`'s current layer (pure kernels over
/// pre-drawn masks; sites touch disjoint rows, so any split is race-free
/// and bit-identical).
void ApplyJobRange(const JobState& state, size_t begin, size_t end) {
  const SortJob& j = state.job;
  const Word* masks = state.masks.data();
  if (j.lex) {
    for (size_t p = begin; p < end; ++p) {
      j.proto->ApplyCompareExchangeLex(j.rows, state.pairs[p].a,
                                       state.pairs[p].b, j.key_col,
                                       j.minor_col, j.ascending,
                                       masks + p * state.mask_words);
    }
  } else {
    for (size_t p = begin; p < end; ++p) {
      j.proto->ApplyCompareExchange(j.rows, state.pairs[p].a,
                                    state.pairs[p].b, j.key_col, j.ascending,
                                    masks + p * state.mask_words);
    }
  }
}

/// Serial-round variant: one SerialSites submission per job and layer —
/// the per-proto draw sequence is identical (site order == scalar order),
/// but the masks never leave registers.
void ApplyJobSitesFused(const JobState& state) {
  const SortJob& j = state.job;
  Protocol2PC::SerialSites sites(j.proto, j.rows);
  if (j.lex) {
    for (const RowPair& pr : state.pairs) {
      sites.CompareExchangeLex(pr.a, pr.b, j.key_col, j.minor_col,
                               j.ascending);
    }
  } else {
    for (const RowPair& pr : state.pairs) {
      sites.CompareExchange(pr.a, pr.b, j.key_col, j.ascending);
    }
  }
}

/// Single-job fully-serial fast path: walks the network's (p, k) layers
/// with inline index math — no pair materialization, no mask buffer — as
/// one SerialSites submission, and charges each layer's aggregate cost
/// once. The draw sequence is the scalar order; accounting touches no
/// protocol randomness, so charging after a layer's sites instead of
/// before commits identical state. This is the shape of the hot loop in an
/// unsharded deployment.
void SerialSortSingle(const SortJob& job) {
  const size_t n = job.rows->size();
  if (n < 2) return;
  Protocol2PC* proto = job.proto;
  const size_t width = job.rows->width();
  const size_t key_col = job.key_col;
  const size_t minor_col = job.minor_col;
  const bool ascending = job.ascending;
  Protocol2PC::SerialSites sites(proto, job.rows);
  size_t p = 1;
  size_t k = 1;
  do {
    uint64_t ops = 0;
    if (job.lex) {
      VisitLayerPairs(n, p, k, [&](size_t a, size_t b) {
        sites.CompareExchangeLex(a, b, key_col, minor_col, ascending);
        ++ops;
      });
    } else {
      VisitLayerPairs(n, p, k, [&](size_t a, size_t b) {
        sites.CompareExchange(a, b, key_col, ascending);
        ++ops;
      });
    }
    if (ops > 0) proto->AccountCompareExchangeBatch(ops, width, job.lex);
  } while (AdvanceLayer(n, &p, &k));
}

}  // namespace

void ObliviousSortBatch(SortJob* jobs, size_t num_jobs,
                        const BatchExec& exec) {
  if (num_jobs == 0) return;
  // Policy dispatch: shuffle-then-sort jobs run through the permutation-
  // network scheduler. The two groups run on disjoint protocol sets (jobs
  // of a batch are on pairwise-distinct protocols), so executing them as
  // two fused submissions is bit-identical per job to any mixed schedule.
  bool any_shuffle = false;
  for (size_t i = 0; i < num_jobs; ++i) {
    any_shuffle =
        any_shuffle || jobs[i].algorithm == SortAlgorithm::kShuffleSort;
  }
  if (any_shuffle) {
    for (size_t i = 0; i < num_jobs; ++i) {
      INCSHRINK_CHECK(jobs[i].proto != nullptr && jobs[i].rows != nullptr);
      for (size_t j = i + 1; j < num_jobs; ++j) {
        INCSHRINK_CHECK(jobs[i].proto != jobs[j].proto);
      }
    }
    std::vector<SortJob> shuffle_group;
    std::vector<SortJob> batcher_group;
    for (size_t i = 0; i < num_jobs; ++i) {
      (jobs[i].algorithm == SortAlgorithm::kShuffleSort ? shuffle_group
                                                        : batcher_group)
          .push_back(jobs[i]);
    }
    ObliviousShuffleSortBatch(shuffle_group.data(), shuffle_group.size(),
                              exec);
    if (!batcher_group.empty()) {
      ObliviousSortBatch(batcher_group.data(), batcher_group.size(), exec);
    }
    return;
  }
  if (num_jobs == 1) {
    const SortJob& job = jobs[0];
    INCSHRINK_CHECK(job.proto != nullptr && job.rows != nullptr);
    if (exec.pool == nullptr || exec.pool->num_threads() <= 1) {
      SerialSortSingle(job);
      return;
    }
    // Pooled single sort: one CompareExchangeRows[Lex]Batch submission per
    // layer — the batch APIs, with their pre-draw + chunked pooled apply,
    // ARE this hot path. (The multi-job loop below pools chunks across
    // jobs instead, which one job cannot benefit from.)
    LayerCursor cursor(job.rows->size());
    std::vector<RowPair> pairs;
    while (cursor.Next(&pairs)) {
      if (pairs.empty()) continue;
      if (job.lex) {
        job.proto->CompareExchangeRowsLexBatch(job.rows, pairs.data(),
                                               pairs.size(), job.key_col,
                                               job.minor_col, job.ascending,
                                               exec);
      } else {
        job.proto->CompareExchangeRowsBatch(job.rows, pairs.data(),
                                            pairs.size(), job.key_col,
                                            job.ascending, exec);
      }
    }
    return;
  }
  // Each job owns its protocol's resharing stream for the whole submission;
  // two jobs on one protocol would interleave their mask draws and diverge
  // from the per-job scalar order.
  for (size_t i = 0; i < num_jobs; ++i) {
    INCSHRINK_CHECK(jobs[i].proto != nullptr && jobs[i].rows != nullptr);
    for (size_t j = i + 1; j < num_jobs; ++j) {
      INCSHRINK_CHECK(jobs[i].proto != jobs[j].proto);
    }
  }

  std::vector<JobState> states;
  states.reserve(num_jobs);
  for (size_t i = 0; i < num_jobs; ++i) states.emplace_back(jobs[i]);

  // Lockstep layer rounds: round r runs layer r of every live network.
  // Same-shaped jobs share every round; differently sized jobs simply drop
  // out as their (shorter) networks finish.
  while (true) {
    size_t total_sites = 0;
    bool any_active = false;
    // Phase 1 — serial, in job index order: emit the layer and charge its
    // aggregate cost (one trace event per job per layer).
    for (JobState& s : states) {
      if (!s.active) continue;
      s.active = s.cursor.Next(&s.pairs);
      if (!s.active || s.pairs.empty()) continue;
      any_active = true;
      s.job.proto->AccountCompareExchangeBatch(
          s.pairs.size(), s.job.rows->width(), s.job.lex);
      total_sites += s.pairs.size();
    }
    if (!any_active) {
      bool live = false;
      for (const JobState& s : states) live = live || s.active;
      if (!live) break;
      continue;  // a round of empty layers; keep draining the cursors
    }

    // Phase 2 — apply the round's sites, pooled across all jobs when the
    // combined layer is wide enough. Serial rounds fuse mask drawing with
    // the apply (site by site, the exact scalar sequence) so masks stay
    // L1-resident; pooled rounds must pre-draw each job's masks in scalar
    // site order because the apply order is scheduling-dependent.
    if (exec.Serial(total_sites)) {
      for (JobState& s : states) {
        if (s.pairs.empty() || !s.active) continue;
        ApplyJobSitesFused(s);
      }
      continue;
    }
    for (JobState& s : states) {
      if (s.pairs.empty() || !s.active) continue;
      s.masks.resize(s.pairs.size() * s.mask_words);
      s.job.proto->DrawReshareMasks(s.masks.size(), s.masks.data());
    }
    struct Chunk {
      const JobState* state;
      size_t begin;
      size_t end;
    };
    const size_t chunk_size =
        BatchChunkSize(total_sites, exec.pool->num_threads());
    std::vector<Chunk> chunks;
    for (const JobState& s : states) {
      if (!s.active || s.pairs.empty()) continue;
      for (size_t b = 0; b < s.pairs.size(); b += chunk_size) {
        chunks.push_back({&s, b, std::min(s.pairs.size(), b + chunk_size)});
      }
    }
    exec.pool->ParallelFor(chunks.size(), [&](size_t c) {
      ApplyJobRange(*chunks[c].state, chunks[c].begin, chunks[c].end);
    });
  }
}

void ObliviousSort(Protocol2PC* proto, SharedRows* rows, size_t key_col,
                   bool ascending, const BatchExec& exec) {
  SortJob job{proto, rows, key_col, 0, /*lex=*/false, ascending};
  ObliviousSortBatch(&job, 1, exec);
}

void ObliviousSortLex(Protocol2PC* proto, SharedRows* rows, size_t major_col,
                      size_t minor_col, bool ascending,
                      const BatchExec& exec) {
  SortJob job{proto, rows, major_col, minor_col, /*lex=*/true, ascending};
  ObliviousSortBatch(&job, 1, exec);
}

void ObliviousSort(Protocol2PC* proto, SharedRows* rows, size_t key_col,
                   bool ascending) {
  ObliviousSort(proto, rows, key_col, ascending, BatchExec{});
}

void ObliviousSortLex(Protocol2PC* proto, SharedRows* rows, size_t major_col,
                      size_t minor_col, bool ascending) {
  ObliviousSortLex(proto, rows, major_col, minor_col, ascending, BatchExec{});
}

void ObliviousSortScalar(Protocol2PC* proto, SharedRows* rows, size_t key_col,
                         bool ascending) {
  ForEachCompareExchange(rows->size(), [&](size_t a, size_t b) {
    proto->CompareExchangeRows(rows, a, b, key_col, ascending);
  });
}

void ObliviousSortLexScalar(Protocol2PC* proto, SharedRows* rows,
                            size_t major_col, size_t minor_col,
                            bool ascending) {
  ForEachCompareExchange(rows->size(), [&](size_t a, size_t b) {
    proto->CompareExchangeRowsLex(rows, a, b, major_col, minor_col,
                                  ascending);
  });
}

uint64_t SortNetworkCompareExchanges(size_t n) {
  uint64_t count = 0;
  ForEachCompareExchange(n, [&](size_t, size_t) { ++count; });
  return count;
}

std::vector<uint64_t> SortNetworkLayerSizes(size_t n) {
  std::vector<uint64_t> sizes;
  LayerCursor cursor(n);
  std::vector<RowPair> pairs;
  while (cursor.Next(&pairs)) sizes.push_back(pairs.size());
  return sizes;
}

std::vector<std::vector<RowPair>> SortNetworkLayers(size_t n) {
  std::vector<std::vector<RowPair>> layers;
  LayerCursor cursor(n);
  std::vector<RowPair> pairs;
  while (cursor.Next(&pairs)) layers.push_back(pairs);
  return layers;
}

}  // namespace incshrink
