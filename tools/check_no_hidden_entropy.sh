#!/usr/bin/env bash
# Static half of the deterministic-seed audit (the runtime half lives in
# tests/determinism_test.cc): every random draw in this repository must come
# from the seedable incshrink::Rng so that identical seeds reproduce
# identical transcripts bit for bit. This script fails if any other entropy
# source appears in committed sources.
#
# Output format: every diagnostic line carries the `entropy-lint:` prefix so
# tools/lint/run_lints.sh can interleave it with the oblivious linter in one
# unified report.
set -u

cd "$(dirname "$0")/.."

say() { echo "entropy-lint: $*"; }

# Forbidden constructs and where they usually sneak in. `mt19937` and
# `uniform_*_distribution` are banned too: libstdc++ gives no cross-platform
# reproducibility guarantees for distributions, so everything must go
# through common/rng.h.
PATTERNS=(
  'std::random_device'
  'random_device'
  '\bsrand\s*\('
  '\bsrandom\s*\('
  '\brand\s*\(\s*\)'
  'mt19937'
  'minstd_rand'
  'default_random_engine'
  'uniform_int_distribution'
  'uniform_real_distribution'
  'normal_distribution'
  'poisson_distribution'
  'time\s*\(\s*(NULL|nullptr|0)\s*\)'
  'high_resolution_clock'
  'steady_clock::now.*seed'
  'getrandom'
  'getentropy'
  '/dev/urandom'
)

fail=0
for pattern in "${PATTERNS[@]}"; do
  hits=$(grep -rnE "$pattern" src tests bench examples 2>/dev/null)
  if [ -n "$hits" ]; then
    say "FORBIDDEN entropy source (pattern: $pattern):"
    echo "$hits"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo
  say "Use incshrink::Rng (src/common/rng.h) with an explicit seed instead."
  exit 1
fi

# Shuffle hygiene: std::random_shuffle (removed in C++17, URNG unspecified)
# is banned everywhere; std::shuffle is only meaningful when driven by the
# seedable Rng, so it is confined to common/rng — if a shuffle is ever
# needed, implement it there on top of the seeded stream, not inline.
SHUFFLE_PATTERNS=(
  'std::random_shuffle'
  '\brandom_shuffle\s*\('
  'std::shuffle'
)

for pattern in "${SHUFFLE_PATTERNS[@]}"; do
  hits=$(grep -rnE "$pattern" src tests bench examples 2>/dev/null \
         | grep -v 'src/common/rng\.\(h\|cc\)')
  if [ -n "$hits" ]; then
    say "FORBIDDEN shuffle outside common/rng (pattern: $pattern):"
    echo "$hits"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo
  say "Shuffles must go through the seedable helpers in src/common/rng.h."
  exit 1
fi

# Concurrency hygiene (parallel-execution-layer satellite): the machine's
# worker count and thread-local timing must never be able to steer a
# simulated result. `thread::hardware_concurrency()` and `std::this_thread`
# (sleep-based timing, yields, thread-id probes) are therefore confined to
# the ThreadPool (src/common/thread_pool.*), the only component allowed to
# ask how many cores exist — everything above it takes an explicit worker
# count or the INCSHRINK_THREADS override, and produces bit-identical
# results regardless (tests/parallel_equivalence_test.cc).
CONCURRENCY_PATTERNS=(
  'std::this_thread'
  'this_thread::'
  'hardware_concurrency'
)

for pattern in "${CONCURRENCY_PATTERNS[@]}"; do
  hits=$(grep -rnE "$pattern" src tests bench examples 2>/dev/null \
         | grep -v 'src/common/thread_pool\.\(h\|cc\)')
  if [ -n "$hits" ]; then
    say "FORBIDDEN concurrency construct outside ThreadPool (pattern: $pattern):"
    echo "$hits"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo
  say "Route worker-count decisions through incshrink::ThreadPool /"
  say "ResolveThreadCount (src/common/thread_pool.h) instead."
  exit 1
fi

# Transport hygiene (upload-transport satellite): the channel layer carries
# opaque byte frames and must stay entirely entropy-free — no Rng, no policy
# state, nothing that could perturb a deterministic run from inside the
# transport. Anything needing randomness (sharing, policy noise) belongs to
# the OwnerClient above it. The byte codec under the IUH1/IUF decoders
# (src/common/bytes.*) parses the same hostile bytes and obeys the same
# bans.
TRANSPORT_PATHS=(src/net src/common/bytes.h src/common/bytes.cc)
if [ -d src/net ]; then
  hits=$(grep -rnE '\bRng\b|\brng\b|rng\.|rng->|\bseed\b|Laplace|Uniform\(|Next32|Next64' "${TRANSPORT_PATHS[@]}" 2>/dev/null)
  if [ -n "$hits" ]; then
    say "FORBIDDEN randomness in the transport layer (src/net and src/common/bytes.* must be entropy-free):"
    echo "$hits"
    fail=1
  fi
fi

# Wall-clock hygiene (socket-transport satellite): the transport layer must
# also never *read a clock* — arrival timing must not be able to steer what
# any deployment computes. The single sanctioned exception is the integer
# millisecond timeout handed to poll(2)/epoll_wait(2), which bounds a
# blocking wait and feeds nothing back into behavior; every such line must
# carry a `net-timeout-ok` marker so the exception stays enumerable.
if [ -d src/net ]; then
  CLOCK_PATTERNS=(
    'std::chrono'
    '::now\s*\('
    '\btime\s*\(\s*(NULL|nullptr|0|&)'
    'clock_gettime'
    'gettimeofday'
    'sleep_for'
    'sleep_until'
    '\busleep\s*\('
    '\bnanosleep\s*\('
  )
  for pattern in "${CLOCK_PATTERNS[@]}"; do
    hits=$(grep -rnE "$pattern" "${TRANSPORT_PATHS[@]}" 2>/dev/null | grep -v 'net-timeout-ok')
    if [ -n "$hits" ]; then
      say "FORBIDDEN wall-clock access in the transport layer (pattern: $pattern):"
      echo "$hits"
      fail=1
    fi
  done
  if [ "$fail" -ne 0 ]; then
    echo
    say "src/net and src/common/bytes.* must stay clock-free; a poll/epoll_wait"
    say "timeout bound is the only exception and its line must be marked"
    say "// net-timeout-ok."
  fi
fi

if [ "$fail" -ne 0 ]; then
  exit 1
fi

# Shard seed hygiene (sharded-secure-cache satellite): shard-local protocol
# RNG state — the per-shard Party seeds and everything derived from them —
# may only come from DeriveShardSeed, the public splitmix64 substream of the
# deployment seed. A Party or Rng constructed in the sharded cache from any
# other value would silently break the K>1 thread-count-invariance and
# shard-reconstruction guarantees, so every such constructor call must sit
# on a line that mentions the derived seed.
SHARDED_CACHE=src/storage/sharded_cache.cc
if [ -f "$SHARDED_CACHE" ]; then
  hits=$(grep -nE '(make_unique<Party>|\bParty\s*\(|\bRng\s*\()' "$SHARDED_CACHE" \
         | grep -v 'derived_seed')
  if [ -n "$hits" ]; then
    say "FORBIDDEN shard-local randomness not derived via DeriveShardSeed:"
    echo "$hits"
    echo
    say "Seed shard parties/Rngs from DeriveShardSeed(engine_seed, shard)"
    say "(src/storage/sharded_cache.h) only."
    exit 1
  fi
fi

# Batch-kernel hygiene (batched-oblivious-execution satellite): the batch
# scheduler (src/oblivious/sort.cc) must take randomness exclusively through
# the protocol's stream — DrawReshareMasks for pre-drawn pooled rounds, or
# Protocol2PC::SerialSites (which draws inline from a local copy of the same
# stream, inside src/mpc/protocol.h) for serial rounds. A raw Rng
# construction or direct Next32/Next64 draw in the scheduler would
# desynchronize the batched path from the scalar resharing sequence and
# silently break the bit-for-bit equivalence contract
# (tests/batched_oblivious_test.cc is the runtime half of this check).
BATCH_SCHEDULER=src/oblivious/sort.cc
if [ -f "$BATCH_SCHEDULER" ]; then
  hits=$(grep -nE '\bRng\s*\(|Next32|Next64|internal_rng|ShareWord|Laplace' \
         "$BATCH_SCHEDULER")
  if [ -n "$hits" ]; then
    say "FORBIDDEN direct randomness in the batch scheduler:"
    echo "$hits"
    echo
    say "Batched kernels must draw only via Protocol2PC::DrawReshareMasks"
    say "or the Protocol2PC::SerialSites kernels (src/mpc/protocol.h)."
    exit 1
  fi
fi

# Shuffle-network hygiene (Waksman-shuffle satellite): the permutation that
# programs a Waksman network's control bits must come exclusively from the
# jointly seeded resharing stream (Protocol2PC::DrawReshareMasks, consumed
# by DrawPublicPermutation) — that is what makes the control bits *public*
# and the shuffle simulatable. A raw Rng construction, a direct Next32/
# Next64 draw, or any share-level peeking in src/oblivious/shuffle.cc would
# either desynchronize both parties' view of the permutation or leak
# payload bits into the routing program.
SHUFFLE_SCHEDULER=src/oblivious/shuffle.cc
if [ -f "$SHUFFLE_SCHEDULER" ]; then
  hits=$(grep -nE '\bRng\s*\(|Next32|Next64|internal_rng|ShareWord|Laplace' \
         "$SHUFFLE_SCHEDULER")
  if [ -n "$hits" ]; then
    say "FORBIDDEN direct randomness in the shuffle network:"
    echo "$hits"
    echo
    say "Shuffle control bits may only be programmed from permutations drawn"
    say "via Protocol2PC::DrawReshareMasks (DrawPublicPermutation in"
    say "src/oblivious/shuffle.h)."
    exit 1
  fi
fi
# Checkpoint hygiene (crash-recovery tentpole): restore NEVER draws. The
# ICKP codec overwrites RNG cursors, counters and thetas with serialized
# state; any randomness drawn during snapshot encode/decode would
# desynchronize the party streams on restart and break the bit-identical
# resume contract (tests/checkpoint_restore_test.cc is the runtime half of
# this check). FreshShare is included: re-sharing rows on restore would
# silently re-randomize the two servers' halves.
# The codec covers both files: checkpoint.h holds the archives' inline field
# calls and the shared Visit templates every snapshot section is built from.
CHECKPOINT_CODEC=(src/storage/checkpoint.h src/storage/checkpoint.cc)
if [ -f "${CHECKPOINT_CODEC[1]}" ]; then
  hits=$(grep -nE '\bRng\s*\(|Next32|Next64|FreshShare|internal_rng|Laplace' \
         "${CHECKPOINT_CODEC[@]}")
  if [ -n "$hits" ]; then
    say "FORBIDDEN randomness in the checkpoint codec:"
    echo "$hits"
    echo
    say "Snapshot encode/restore must be a pure function of the serialized"
    say "bytes — RNG state is restored, never re-drawn (src/storage/"
    say "checkpoint.h documents the leakage contract)."
    exit 1
  fi
fi
# The same rule inside every snapshot Visit template outside the codec: each
# stateful class writes its section's field order as a `void Visit...(A& a`
# or `Status Visit...(A& a` definition whose archive may start the next line
# (engine.cc, owner_client.cc, fleet.cc, ...), and the whole body, up to the
# closing brace in column 0, runs on restore.
VISIT_FILES=$(grep -rlE '^(void|Status) Visit[A-Za-z]*\((A& |$)' src)
if [ -n "$VISIT_FILES" ]; then
  # shellcheck disable=SC2086  # one path per word
  hits=$(awk '
    /^(void|Status) Visit[A-Za-z]*\((A& |$)/ { inside = 1 }
    inside && /(^|[^A-Za-z0-9_])Rng[ \t]*\(|Next32|Next64|FreshShare|Laplace/ {
      print FILENAME ":" FNR ":" $0
    }
    inside && /^}/ { inside = 0 }
  ' $VISIT_FILES)
  if [ -n "$hits" ]; then
    say "FORBIDDEN randomness in a snapshot Visit template:"
    echo "$hits"
    echo
    say "A Visit body runs on restore: it may read and write serialized"
    say "state only, never draw (src/storage/checkpoint.h)."
    exit 1
  fi
fi

say "OK: no hidden entropy sources found."
