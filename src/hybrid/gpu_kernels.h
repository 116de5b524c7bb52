#ifndef HBTREE_HYBRID_GPU_KERNELS_H_
#define HBTREE_HYBRID_GPU_KERNELS_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "core/macros.h"
#include "core/types.h"
#include "cpubtree/node_layout.h"
#include "gpusim/device.h"
#include "gpusim/warp.h"

namespace hbtree {

/// GPU kernels of the HB+-tree (Section 5.3, Appendix D).
///
/// One inner-search kernel per tree layout. Both implement the paper's
/// parallel node search: a team of T threads per query (T = 8 for 64-bit
/// keys, 16 for 32-bit), each thread comparing one key of the current
/// node, with the team's winner found via shared-memory flags — Snippet 3.
/// They are written warp-synchronously against the SIMT simulator:
/// per-lane loops between accounting calls are the lockstep execution a
/// real warp performs, `Gather` coalesces the team loads into 64-byte
/// transactions, and `SharedAccess`/`Instruction` charge the flag exchange
/// and ALU work.
///
/// Both kernels support the load-balancing scheme (Section 5.5): queries
/// may carry a per-query start node produced by a partial CPU descent.
///
/// Each kernel runs in one of two modes, chosen by the params'
/// `level_wise` flag. Level-wise (DESIGN.md §14; what the pipeline
/// launches) sorts the launch by key first, lets runs of teams sharing a
/// node line load it once, and returns IndexedResult records in sorted
/// order. Per-query mode, the test reference, has no sort phase: every
/// team loads its own lines and plain 8 B values go back at the caller
/// positions. The search itself is the same code in both modes.

/// One result record of a level-wise launch on the wire (12 B): the
/// intermediate result of the query at sorted position i and that
/// query's index within the launch. The host finishes the records in
/// sorted order and writes each answer back to its caller.
#pragma pack(push, 4)
struct IndexedResult {
  std::uint64_t intermediate;
  std::uint32_t index;
};
#pragma pack(pop)
static_assert(sizeof(IndexedResult) == 12, "12 B per query on the wire");

/// Sort phase of level-wise launches and the helpers both modes share
/// (DESIGN.md §14).
///
/// A level-wise launch takes its queries in caller order and first sorts
/// the (key, caller index, start node) records by key, ties by index —
/// the order that makes queries sharing a node consecutive. The phase
/// has the shape of Stehle & Jacobsen's bandwidth-efficient hybrid GPU
/// sort: partition passes over device scratch split the launch until
/// every bucket fits one block's shared-memory tile, then each bucket is
/// sorted in shared memory (a bitonic network) and written where the
/// search phase reads it. The partition splits on sampled splitters with equality
/// buckets instead of radix digits, so a heavily repeated key (Zipf)
/// settles in one pass rather than one pass per shared digit, and
/// single-key buckets need no local sort. A launch of at most one tile
/// skips the passes: the search warps' own coalesced query loads fill
/// the tile, so the phase adds only shared-memory and ALU work there.
/// The functional sort is a host sort (the simulator executes lanes on
/// the host); every device step is billed through WarpScope, so the
/// kernel cost model prices it with the search.
namespace levelwise_internal {

template <typename K>
struct SortRecord {
  K key;
  std::uint32_t index;  // position in the launch's caller-order input
  std::uint32_t start;  // pre-descended start node (0 without)
};

/// Records one 1024-thread block sorts in shared memory: one per team.
template <typename K>
inline constexpr std::uint32_t kSortTile = 1024 / KeyTraits<K>::kPerCacheLine;

/// Device scratch a launch of `count` queries needs for its partition
/// passes (two ping-pong halves of records; none within one tile).
template <typename K>
std::size_t SortScratchBytes(std::uint32_t count) {
  return count > kSortTile<K>
             ? 2 * std::size_t{count} * sizeof(SortRecord<K>)
             : 0;
}

/// Compare-exchange stages of a bitonic network over `n` records.
inline int BitonicStages(std::uint32_t n) {
  const int l = std::bit_width(std::max(n, 1u) - 1);
  return l * (l + 1) / 2;
}

template <typename K>
struct SortedLaunch {
  std::vector<SortRecord<K>> records;  // by (key, index); caller order
                                       // without a sort phase
  bool sorted = true;  // false: per-query mode, no sort phase
  /// Where the sorted records live for the search phase's gather (the
  /// simulator serves their contents from `records`); null for a
  /// one-tile launch, whose search warps feed the shared sort themselves.
  gpu::DevicePtr device;
  int tile_stages = 0;  // bitonic stages of the one-tile sort
  std::unique_ptr<gpu::ScopedDeviceAlloc> owned_scratch;
};

/// One warp's share of a shared-memory bitonic sort over `lanes` records.
inline void ChargeBitonic(gpu::WarpScope& warp, int stages, int lanes) {
  for (int s = 0; s < stages; ++s) {
    warp.SharedAccessUniform(lanes);  // partner record
    warp.Instruction(2);              // compare + select
    warp.SharedAccessUniform(lanes);  // write back
  }
}

/// Index of the first splitter >= key (branch-free binary search).
template <typename K>
std::uint32_t LowerBound(const std::vector<K>& split, K key) {
  const K* base = split.data();
  std::size_t n = split.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half] < key ? base + half : base;
    n -= half;
  }
  return static_cast<std::uint32_t>(base - split.data()) +
         (*base < key ? 1u : 0u);
}

/// Runs the sort phase of a launch over `count` caller-order queries
/// (only stages the records, in caller order, without `sort`). The sort
/// warps (one record per lane) are the launch's own warps running ahead
/// of the search, so they add no warps to the launch.
template <typename K>
SortedLaunch<K> SortLaunch(gpu::Device& device, gpu::DevicePtr queries,
                           gpu::DevicePtr start_nodes, std::uint32_t count,
                           bool sort, gpu::DevicePtr scratch,
                           gpu::KernelStats* stats) {
  using Record = SortRecord<K>;
  constexpr int kLanes = gpu::WarpScope::kWarpSize;
  constexpr std::uint32_t kBlock = 1024;   // records staged per block
  constexpr std::uint32_t kMaxBuckets = 256;
  constexpr std::uint32_t kOversample = 4;  // sample keys per bucket
  auto less = [](const Record& a, const Record& b) {
    return a.key < b.key || (a.key == b.key && a.index < b.index);
  };

  SortedLaunch<K> out;
  std::vector<Record>& cur = out.records;
  cur.resize(count);
  {
    const K* keys = device.HostViewAs<K>(queries);
    const std::uint32_t* starts =
        start_nodes.is_null() ? nullptr
                              : device.HostViewAs<std::uint32_t>(start_nodes);
    for (std::uint32_t i = 0; i < count; ++i) {
      cur[i] = Record{keys[i], i, starts != nullptr ? starts[i] : 0u};
    }
  }
  if (!sort) {
    out.sorted = false;
    return out;
  }
  if (count <= kSortTile<K>) {
    std::sort(cur.begin(), cur.end(), less);
    out.tile_stages = BitonicStages(count);
    return out;
  }

  if (scratch.is_null()) {
    out.owned_scratch = std::make_unique<gpu::ScopedDeviceAlloc>(
        &device, SortScratchBytes<K>(count));
    HBTREE_CHECK_MSG(out.owned_scratch->ok(), "no device memory for sort");
    scratch = out.owned_scratch->get();
  }
  const gpu::DevicePtr half[2] = {scratch, scratch + count * sizeof(Record)};
  gpu::KernelStats sort_stats;
  std::uint64_t off[kLanes];

  // Bills a warp's access to the records at positions pos[0..lanes) of
  // `src`: -1 is the caller-order input arrays, 0/1 a scratch half.
  auto access = [&](gpu::WarpScope& warp, int src, const std::uint32_t* pos,
                    int lanes, bool keys_only) {
    if (src < 0) {
      for (int l = 0; l < lanes; ++l) off[l] = pos[l] * sizeof(K);
      warp.RecordAccess(queries, off, lanes, sizeof(K));
      if (keys_only || start_nodes.is_null()) return;
      for (int l = 0; l < lanes; ++l) {
        off[l] = pos[l] * sizeof(std::uint32_t);
      }
      warp.RecordAccess(start_nodes, off, lanes, sizeof(std::uint32_t));
      return;
    }
    for (int l = 0; l < lanes; ++l) off[l] = pos[l] * sizeof(Record);
    warp.RecordAccess(half[src], off, lanes,
                      keys_only ? sizeof(K) : sizeof(Record));
  };
  // Runs `body(warp, pos, lanes)` over positions [lo, hi) in warps.
  auto sweep = [&](std::uint32_t lo, std::uint32_t hi, auto&& body) {
    std::uint32_t pos[kLanes];
    for (std::uint32_t w = lo; w < hi; w += kLanes) {
      const int lanes =
          static_cast<int>(std::min<std::uint32_t>(kLanes, hi - w));
      for (int l = 0; l < lanes; ++l) {
        pos[l] = w + static_cast<std::uint32_t>(l);
      }
      gpu::WarpScope warp(&device, &sort_stats, lanes);
      body(warp, pos, lanes);
    }
  };

  struct Bucket {
    std::uint32_t lo, hi;
    int src;        // where its records live: -1 input, 0/1 scratch half
    bool constant;  // a single key: already in (key, index) order
  };
  std::vector<Bucket> pending{{0, count, -1, false}};
  std::vector<Bucket> done;
  std::vector<Record> moved(count);
  std::vector<std::uint16_t> child_of(count);
  std::vector<std::uint32_t> staged;
  while (!pending.empty()) {
    std::vector<Bucket> children;
    for (const Bucket& b : pending) {
      const std::uint32_t size = b.hi - b.lo;
      const int dst = b.src < 0 ? 0 : 1 - b.src;
      // Splitters: a regular sample, sorted in shared memory by one
      // block; every kOversample-th distinct key splits. Each splitter
      // also gets an equality child, so duplicates never recurse.
      const std::uint32_t buckets = std::clamp<std::uint32_t>(
          std::bit_ceil(2 * size / kSortTile<K>), 2, kMaxBuckets);
      const std::uint32_t samples = buckets * kOversample;
      std::vector<std::uint32_t> sample_pos(samples);
      std::vector<K> split(samples);
      for (std::uint32_t j = 0; j < samples; ++j) {
        sample_pos[j] = b.lo + static_cast<std::uint32_t>(
                                   std::uint64_t{j} * size / samples);
        split[j] = cur[sample_pos[j]].key;
      }
      for (std::uint32_t j = 0; j < samples; j += kLanes) {
        const int lanes =
            static_cast<int>(std::min<std::uint32_t>(kLanes, samples - j));
        gpu::WarpScope warp(&device, &sort_stats, lanes);
        access(warp, b.src, &sample_pos[j], lanes, /*keys_only=*/true);
        warp.SharedAccessUniform(lanes);
        ChargeBitonic(warp, BitonicStages(samples), lanes);
      }
      std::sort(split.begin(), split.end());
      std::size_t kept = 0;
      for (std::uint32_t j = kOversample - 1; j < samples; j += kOversample) {
        if (kept == 0 || split[kept - 1] != split[j]) split[kept++] = split[j];
      }
      split.resize(kept);

      // Child 2i holds keys between splitters i-1 and i, child 2i+1 the
      // keys equal to splitter i.
      const auto nchild = static_cast<std::uint32_t>(2 * kept + 1);
      std::vector<std::uint32_t> offset(nchild, 0);
      std::vector<K> cmin(nchild, KeyTraits<K>::kMax), cmax(nchild, 0);
      for (std::uint32_t i = b.lo; i < b.hi; ++i) {
        const K key = cur[i].key;
        const std::uint32_t s = LowerBound(split, key);
        const std::uint32_t c = 2 * s + (s < kept && split[s] == key);
        child_of[i] = static_cast<std::uint16_t>(c);
        ++offset[c];
        cmin[c] = std::min(cmin[c], key);
        cmax[c] = std::max(cmax[c], key);
      }
      // Histogram sweep: binary search over the splitters in shared
      // memory, then a shared atomic per record; equal children in a
      // warp collide on one bank and serialize.
      const int search_steps = std::bit_width(kept);
      auto classify_cost = [search_steps](gpu::WarpScope& warp, int lanes) {
        for (int step = 0; step < search_steps; ++step) {
          warp.SharedAccessUniform(lanes);
          warp.Instruction(2);
        }
      };
      sweep(b.lo, b.hi, [&](gpu::WarpScope& warp, const std::uint32_t* pos,
                            int lanes) {
        access(warp, b.src, pos, lanes, /*keys_only=*/true);
        classify_cost(warp, lanes);
        int banks[kLanes];
        for (int l = 0; l < lanes; ++l) {
          banks[l] = child_of[pos[l]] % gpu::WarpScope::kSharedBanks;
        }
        warp.SharedAccess(banks, lanes);
      });
      // Exclusive scan of the counters: one warp, nchild / 32 rounds.
      {
        gpu::WarpScope warp(&device, &sort_stats);
        for (std::uint32_t r = 0; r < nchild; r += kLanes) {
          warp.SharedAccessUniform(kLanes);
          warp.Instruction(2);
        }
        std::uint32_t run = b.lo;
        for (std::uint32_t c = 0; c < nchild; ++c) {
          const std::uint32_t n = offset[c];
          offset[c] = run;
          run += n;
          if (n == 0) continue;
          const Bucket child{offset[c], run, dst, cmin[c] == cmax[c]};
          if (n > kSortTile<K> && !child.constant) {
            children.push_back(child);
          } else {
            done.push_back(child);
          }
        }
      }
      // Scatter sweep: stable destinations; each block stages its records
      // by child in shared memory so a warp writes runs of one child,
      // which coalesce.
      std::vector<std::uint32_t> block_first(nchild);
      for (std::uint32_t blo = b.lo; blo < b.hi; blo += kBlock) {
        const std::uint32_t bhi = std::min(b.hi, blo + kBlock);
        block_first = offset;
        for (std::uint32_t i = blo; i < bhi; ++i) {
          moved[offset[child_of[i]]++] = cur[i];
        }
        staged.clear();
        for (std::uint32_t c = 0; c < nchild; ++c) {
          for (std::uint32_t d = block_first[c]; d < offset[c]; ++d) {
            staged.push_back(d);
          }
        }
        sweep(blo, bhi, [&](gpu::WarpScope& warp, const std::uint32_t* pos,
                            int lanes) {
          access(warp, b.src, pos, lanes, /*keys_only=*/false);
          classify_cost(warp, lanes);
          warp.SharedAccessUniform(lanes);  // stage by child rank
          warp.SharedAccessUniform(lanes);
          access(warp, dst, &staged[pos[0] - blo], lanes,
                 /*keys_only=*/false);
        });
      }
      std::copy(moved.begin() + b.lo, moved.begin() + b.hi,
                cur.begin() + b.lo);
    }
    pending.swap(children);
  }

  // Tile sweep: every bucket with more than one key is loaded by one
  // block, sorted in shared memory and written to half 0, where the
  // search phase reads; single-key buckets already in half 0 stay put.
  for (const Bucket& b : done) {
    const bool sort = !b.constant;
    if (!sort && b.src == 0) continue;
    if (sort) std::sort(cur.begin() + b.lo, cur.begin() + b.hi, less);
    const int stages = sort ? BitonicStages(b.hi - b.lo) : 0;
    sweep(b.lo, b.hi, [&](gpu::WarpScope& warp, const std::uint32_t* pos,
                          int lanes) {
      access(warp, b.src, pos, lanes, /*keys_only=*/false);
      if (sort) {
        warp.SharedAccessUniform(lanes);
        ChargeBitonic(warp, stages, lanes);
      }
      access(warp, 0, pos, lanes, /*keys_only=*/false);
    });
  }
  out.device = half[0];

  sort_stats.warps_executed = 0;  // the launch's own warps, counted there
  *stats += sort_stats;
  return out;
}

/// Search-phase load of one warp's teams: key, caller index and start
/// node (`root` without pre-descent) of launch positions
/// [warp_base, warp_base + teams) — sorted positions level-wise, caller
/// positions in per-query mode.
template <typename K>
void LoadSortedTeams(gpu::WarpScope& warp, const SortedLaunch<K>& sorted,
                     gpu::DevicePtr queries, gpu::DevicePtr start_nodes,
                     std::uint64_t root, std::uint32_t warp_base, int teams,
                     K* key, std::uint32_t* index, std::uint64_t* node) {
  std::uint64_t off[gpu::WarpScope::kWarpSize] = {};
  const SortRecord<K>* rec = sorted.records.data() + warp_base;
  if (!sorted.device.is_null()) {
    for (int t = 0; t < teams; ++t) {
      off[t] = (warp_base + t) * sizeof(SortRecord<K>);
    }
    warp.RecordAccess(sorted.device, off, teams, sizeof(SortRecord<K>));
  } else {
    // The warp's coalesced loads of its caller-order queries (and start
    // nodes). In a one-tile level-wise launch they fill the block's
    // shared tile; after the bitonic network each team reads its sorted
    // record back.
    for (int t = 0; t < teams; ++t) off[t] = (warp_base + t) * sizeof(K);
    warp.RecordAccess(queries, off, teams, sizeof(K));
    if (!start_nodes.is_null()) {
      for (int t = 0; t < teams; ++t) {
        off[t] = (warp_base + t) * sizeof(std::uint32_t);
      }
      warp.RecordAccess(start_nodes, off, teams, sizeof(std::uint32_t));
    }
    if (sorted.sorted) {
      warp.SharedAccessUniform(teams);
      ChargeBitonic(warp, sorted.tile_stages, teams);
      warp.SharedAccessUniform(teams);
    }
  }
  for (int t = 0; t < teams; ++t) {
    key[t] = rec[t].key;
    index[t] = rec[t].index;
    node[t] = start_nodes.is_null() ? root : rec[t].start;
  }
}

/// Marks "no line yet" in the cross-warp run carries (never a byte
/// offset of a real line).
inline constexpr std::uint64_t kNoLine = ~0ull;

/// Loads one line per team into `out`: team t's `kLanesPerTeam`
/// elements of T start at byte `line[t]` of `pool`. Level-wise, a team
/// whose line equals the previous team's (`*carry` for the warp's first
/// team; the sort makes such runs consecutive) follows its run's leader:
/// only leaders issue the global gather, and the followers' lanes take
/// the leader's line as one shared-memory broadcast. In per-query mode
/// every team leads. Updates `*carry` and returns the number of leaders.
template <int kLanesPerTeam, typename T>
int LoadTeamLines(gpu::WarpScope& warp, gpu::DevicePtr pool,
                  const std::byte* pool_host, const std::uint64_t* line,
                  int teams, bool level_wise, std::uint64_t* carry, T* out) {
  std::uint64_t off[gpu::WarpScope::kWarpSize];
  int gathered = 0;
  int leaders = 0;
  for (int t = 0; t < teams; ++t) {
    const std::uint64_t prev = t == 0 ? *carry : line[t - 1];
    if (!level_wise || line[t] != prev) {
      ++leaders;
      for (int lane = 0; lane < kLanesPerTeam; ++lane) {
        off[gathered++] = line[t] + lane * sizeof(T);
      }
    }
    std::memcpy(out + t * kLanesPerTeam, pool_host + line[t],
                kLanesPerTeam * sizeof(T));
  }
  *carry = line[teams - 1];
  if (gathered > 0) warp.RecordAccess(pool, off, gathered, sizeof(T));
  const int followers = teams * kLanesPerTeam - gathered;
  if (followers > 0) warp.SharedAccessUniform(followers);
  return leaders;
}

/// Writes one warp's results: IndexedResult records at the sorted
/// positions (`indexed`), or plain values back at the caller positions.
inline void StoreResults(gpu::WarpScope& warp, gpu::DevicePtr results,
                         bool indexed, std::uint32_t warp_base, int teams,
                         const std::uint64_t* value,
                         const std::uint32_t* index) {
  std::uint64_t off[gpu::WarpScope::kWarpSize];
  if (indexed) {
    IndexedResult rec[gpu::WarpScope::kWarpSize];
    for (int t = 0; t < teams; ++t) {
      off[t] = (warp_base + t) * sizeof(IndexedResult);
      rec[t] = IndexedResult{value[t], index[t]};
    }
    warp.Scatter(results, off, teams, rec);
  } else {
    for (int t = 0; t < teams; ++t) off[t] = index[t] * sizeof(std::uint64_t);
    warp.Scatter(results, off, teams, value);
  }
}

}  // namespace levelwise_internal

/// Launch parameters for the implicit-tree inner search.
template <typename K>
struct ImplicitKernelParams {
  gpu::DevicePtr nodes;  // ImplicitInnerNode<K>[], root-first by level
  /// Node offset of each level within `nodes` (host-side kernel constant,
  /// the levelOffsets array of Snippet 3), indexed by level (height..1).
  std::vector<std::uint64_t> level_offsets;
  /// Materialized node count per level (index 0 = leaf lines); child
  /// indices are clamped to it, mirroring the host-side descent.
  std::vector<std::uint64_t> level_alloc;
  int height = 0;       // inner levels in the tree
  int start_level = 0;  // first level the GPU searches (== height unless
                        // the CPU pre-descended, Section 5.5)
  int fanout = 0;       // == keys per node (hybrid layout)

  gpu::DevicePtr queries;      // K[count]
  gpu::DevicePtr start_nodes;  // uint32[count]; null -> all start at node 0
  /// Leaf line index per query: IndexedResult[count] in sorted key order
  /// (the 12 B/query wire format) when `level_wise`, else uint64[count]
  /// in caller order.
  gpu::DevicePtr results;
  std::uint32_t count = 0;

  /// Level-wise launch (sort phase, run dedup, indexed results) instead
  /// of the per-query reference.
  bool level_wise = false;
  /// Level-wise only: levelwise_internal::SortScratchBytes<K>(count) bytes
  /// of device scratch for the sort phase; null lets the launch allocate
  /// its own.
  gpu::DevicePtr sort_scratch;
};

/// Runs the implicit inner-node search kernel (Snippet 3); returns
/// per-launch stats for the kernel cost model. Functionally computes
/// results in device memory exactly as Snippet 3 would.
///
/// Level-wise, the launch's queries may come in any order: the sort phase
/// above orders them by key inside the launch. Teams whose node at the
/// current level equals the previous team's node (a "run") reuse the
/// leader's node line from shared memory instead of re-issuing the global
/// gather — the batch loads each distinct node once per level, which is
/// the FPGA batch-search idea mapped onto warps. Run boundaries carry
/// across warps, so the per-level node loads equal the number of distinct
/// start nodes in the whole launch. The search side (flag exchange,
/// compare, clamp) is the same in both modes: every query is resolved
/// individually.
template <typename K>
gpu::KernelStats RunImplicitInnerSearch(gpu::Device& device,
                                        const ImplicitKernelParams<K>& p) {
  gpu::KernelStats stats;
  constexpr int kTeam = KeyTraits<K>::kPerCacheLine;  // threads per query
  const int teams_per_warp = gpu::WarpScope::kWarpSize / kTeam;
  if (p.count == 0) return stats;

  const auto launch = levelwise_internal::SortLaunch<K>(
      device, p.queries, p.start_nodes, p.count, p.level_wise,
      p.sort_scratch, &stats);
  const std::byte* nodes_host = device.HostView(p.nodes);
  stats.node_loads_by_level.assign(p.start_level + 1, 0);
  stats.node_queries_by_level.assign(p.start_level + 1, 0);
  // Run-leader carry across warps: the node line the previous team
  // visited at each level.
  std::vector<std::uint64_t> prev_line(p.start_level + 1,
                                       levelwise_internal::kNoLine);

  for (std::uint32_t warp_base = 0; warp_base < p.count;
       warp_base += teams_per_warp) {
    const int teams =
        static_cast<int>(std::min<std::uint32_t>(teams_per_warp,
                                                 p.count - warp_base));
    const int lanes = teams * kTeam;
    gpu::WarpScope warp(&device, &stats, lanes);

    K team_query[gpu::WarpScope::kWarpSize];
    std::uint32_t caller[gpu::WarpScope::kWarpSize];
    std::uint64_t node[gpu::WarpScope::kWarpSize];
    levelwise_internal::LoadSortedTeams(warp, launch, p.queries,
                                        p.start_nodes, /*root=*/0, warp_base,
                                        teams, team_query, caller, node);

    // Inner-node descent (Snippet 3).
    for (int level = p.start_level; level >= 1; --level) {
      // Each lane loads one key of its team's node: selfKey.
      std::uint64_t line[gpu::WarpScope::kWarpSize];
      for (int t = 0; t < teams; ++t) {
        line[t] = (p.level_offsets[level] + node[t]) * kCacheLineSize;
      }
      K self_key[gpu::WarpScope::kWarpSize];
      const int leaders = levelwise_internal::LoadTeamLines<kTeam>(
          warp, p.nodes, nodes_host, line, teams, p.level_wise,
          &prev_line[level], self_key);

      // flag[threadIdx] = (teamQuery <= selfKey); write + barrier + read
      // neighbour flag + conditional result write (Snippet 3 lines 13-24).
      warp.SharedAccessUniform(lanes);  // flag store
      warp.Instruction(2);              // compare + selfFlag
      warp.SharedAccessUniform(lanes);  // neighbour flag load
      warp.Instruction(2);              // transition test + result store
      warp.Instruction(2);              // __syncthreads x2 (warp-level)

      for (int t = 0; t < teams; ++t) {
        // result = the lane whose flag is 1 while its left neighbour's is
        // 0 == the number of keys smaller than the query.
        int result = 0;
        for (int lane = 0; lane < kTeam; ++lane) {
          if (self_key[t * kTeam + lane] < team_query[t]) ++result;
        }
        HBTREE_DCHECK(result < p.fanout);
        node[t] = node[t] * p.fanout + static_cast<std::uint64_t>(result);
        const std::uint64_t bound = p.level_alloc[level - 1];
        if (node[t] >= bound) node[t] = bound - 1;
      }
      warp.Instruction(1);  // the clamp

      stats.node_loads_by_level[level] += static_cast<std::uint64_t>(leaders);
      stats.node_queries_by_level[level] += static_cast<std::uint64_t>(teams);
    }

    // Leaf line indices: one lane per team writes; consecutive results
    // coalesce into one transaction per warp.
    levelwise_internal::StoreResults(warp, p.results, p.level_wise,
                                     warp_base, teams, node, caller);
  }
  return stats;
}

/// Launch parameters for the regular-tree inner search.
template <typename K>
struct RegularKernelParams {
  gpu::DevicePtr inner_hot;  // RegularInnerHot<K>[] indexed by pool slot
  gpu::DevicePtr last_hot;   // RegularInnerHot<K>[] for the last level
  NodeRef root = kNullRef;
  int root_level = 0;   // levels counted down to 1 (last inner level)
  int start_level = 0;  // == root_level unless the CPU pre-descended

  gpu::DevicePtr queries;      // K[count]
  gpu::DevicePtr start_nodes;  // uint32[count]; null -> all start at root
  gpu::DevicePtr results;      // (last_inner << 16) | line per query, in
                               // the format of ImplicitKernelParams
  std::uint32_t count = 0;

  // See ImplicitKernelParams.
  bool level_wise = false;
  gpu::DevicePtr sort_scratch;
};

/// Packs/unpacks the regular kernel's intermediate result.
inline std::uint64_t PackLeafPosition(NodeRef node, int line) {
  return (static_cast<std::uint64_t>(node) << 16) |
         static_cast<std::uint64_t>(line);
}
inline NodeRef UnpackLeafNode(std::uint64_t packed) {
  return static_cast<NodeRef>(packed >> 16);
}
inline int UnpackLeafLine(std::uint64_t packed) {
  return static_cast<int>(packed & 0xffff);
}

/// Runs the regular-tree inner search kernel: per level, the team searches
/// the index line, fetches and searches the selected key line, then one
/// lane fetches the child reference — "three memory accesses instead of
/// one" (Section 5.3).
///
/// Modes as in RunImplicitInnerSearch. Level-wise, the run leader issues
/// the global gathers (index line, key line, child ref) and followers
/// take the lines from shared memory; the key-line and child-ref loads
/// dedupe one grain finer, on the selected line, so queries of one run
/// that fall into the same key line share that fetch too. Per-level node
/// loads (the index-line leaders) equal the distinct start nodes of the
/// launch at that level.
template <typename K>
gpu::KernelStats RunRegularInnerSearch(gpu::Device& device,
                                       const RegularKernelParams<K>& p) {
  gpu::KernelStats stats;
  using Shape = RegularShape<K>;
  constexpr int kTeam = Shape::kIdx;  // 8 (64-bit) / 16 (32-bit)
  const int teams_per_warp = gpu::WarpScope::kWarpSize / kTeam;
  constexpr std::uint64_t kHotBytes = sizeof(RegularInnerHot<K>);
  constexpr std::uint64_t kKeysBase = Shape::kIdx * sizeof(K);
  constexpr std::uint64_t kRefsBase =
      kKeysBase + Shape::kFanout * sizeof(K);
  if (p.count == 0) return stats;

  const auto launch = levelwise_internal::SortLaunch<K>(
      device, p.queries, p.start_nodes, p.count, p.level_wise,
      p.sort_scratch, &stats);
  auto host_view = [&device](gpu::DevicePtr ptr) -> const std::byte* {
    return ptr.is_null() ? nullptr : device.HostView(ptr);
  };
  const std::byte* inner_host = host_view(p.inner_hot);
  const std::byte* last_host = host_view(p.last_hot);
  stats.node_loads_by_level.assign(p.start_level + 1, 0);
  stats.node_queries_by_level.assign(p.start_level + 1, 0);
  // Cross-warp run carries per level: the previous team's index line,
  // key line and child-ref slot.
  const std::vector<std::uint64_t> none(p.start_level + 1,
                                        levelwise_internal::kNoLine);
  std::vector<std::uint64_t> prev_index = none, prev_keys = none,
                             prev_ref = none;

  for (std::uint32_t warp_base = 0; warp_base < p.count;
       warp_base += teams_per_warp) {
    const int teams =
        static_cast<int>(std::min<std::uint32_t>(teams_per_warp,
                                                 p.count - warp_base));
    const int lanes = teams * kTeam;
    gpu::WarpScope warp(&device, &stats, lanes);

    K team_query[gpu::WarpScope::kWarpSize];
    std::uint32_t caller[gpu::WarpScope::kWarpSize];
    std::uint64_t node[gpu::WarpScope::kWarpSize];
    levelwise_internal::LoadSortedTeams(warp, launch, p.queries,
                                        p.start_nodes, p.root, warp_base,
                                        teams, team_query, caller, node);

    std::uint64_t line[gpu::WarpScope::kWarpSize];
    K lane_key[gpu::WarpScope::kWarpSize];
    int line_result[gpu::WarpScope::kWarpSize];
    for (int level = p.start_level; level >= 1; --level) {
      const bool last = level == 1;
      const gpu::DevicePtr pool = last ? p.last_hot : p.inner_hot;
      const std::byte* pool_host = last ? last_host : inner_host;

      // Step 1: parallel search of the index line.
      for (int t = 0; t < teams; ++t) line[t] = node[t] * kHotBytes;
      const int leaders = levelwise_internal::LoadTeamLines<kTeam>(
          warp, pool, pool_host, line, teams, p.level_wise,
          &prev_index[level], lane_key);
      warp.SharedAccessUniform(lanes);
      warp.Instruction(4);
      warp.SharedAccessUniform(lanes);
      int s[gpu::WarpScope::kWarpSize];
      for (int t = 0; t < teams; ++t) {
        int count_less = 0;
        for (int lane = 0; lane < kTeam; ++lane) {
          if (lane_key[t * kTeam + lane] < team_query[t]) ++count_less;
        }
        HBTREE_DCHECK(count_less < kTeam);
        s[t] = count_less;
      }

      // Step 2: fetch and search the selected key line.
      for (int t = 0; t < teams; ++t) {
        line[t] = node[t] * kHotBytes + kKeysBase +
                  static_cast<std::uint64_t>(s[t]) * kTeam * sizeof(K);
      }
      levelwise_internal::LoadTeamLines<kTeam>(warp, pool, pool_host, line,
                                               teams, p.level_wise,
                                               &prev_keys[level], lane_key);
      warp.SharedAccessUniform(lanes);
      warp.Instruction(4);
      warp.SharedAccessUniform(lanes);
      for (int t = 0; t < teams; ++t) {
        int count_less = 0;
        for (int lane = 0; lane < kTeam; ++lane) {
          if (lane_key[t * kTeam + lane] < team_query[t]) ++count_less;
        }
        HBTREE_DCHECK(count_less < kTeam);
        line_result[t] = s[t] * kTeam + count_less;
      }

      stats.node_loads_by_level[level] += static_cast<std::uint64_t>(leaders);
      stats.node_queries_by_level[level] += static_cast<std::uint64_t>(teams);

      if (last) break;

      // Step 3: one lane per team fetches the child reference.
      for (int t = 0; t < teams; ++t) {
        line[t] = node[t] * kHotBytes + kRefsBase +
                  static_cast<std::uint64_t>(line_result[t]) * sizeof(K);
      }
      K child_ref[gpu::WarpScope::kWarpSize];
      levelwise_internal::LoadTeamLines<1>(warp, pool, pool_host, line,
                                           teams, p.level_wise,
                                           &prev_ref[level], child_ref);
      warp.Instruction(1);
      for (int t = 0; t < teams; ++t) {
        node[t] = static_cast<std::uint64_t>(child_ref[t]);
      }
    }

    // Packed (last inner node, leaf line) results.
    std::uint64_t packed[gpu::WarpScope::kWarpSize];
    for (int t = 0; t < teams; ++t) {
      packed[t] = PackLeafPosition(static_cast<NodeRef>(node[t]),
                                   line_result[t]);
    }
    levelwise_internal::StoreResults(warp, p.results, p.level_wise,
                                     warp_base, teams, packed, caller);
  }
  return stats;
}

}  // namespace hbtree

#endif  // HBTREE_HYBRID_GPU_KERNELS_H_
