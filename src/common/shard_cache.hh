/**
 * @file
 * Sharded, mutex-striped LRU cache for evaluation memoization.
 *
 * UNICO's wall-clock cost is dominated by re-evaluating identical
 * (hardware, mapping, operator) triples: successive halving re-runs
 * surviving candidates round after round and multi-seed bench sweeps
 * repeat whole trials. The cache turns those repeats into hash
 * lookups. Keys are 128-bit canonical fingerprints built with
 * FingerprintBuilder; values are small PODs. Striping the key space
 * across independently locked shards keeps concurrent mapping-search
 * jobs from serializing on one mutex.
 *
 * Correctness contract for evaluation caching: the cache must sit
 * *below* any fault-injection layer (only fault-free model outputs
 * are stored) and a hit must charge the same nominal virtual cost as
 * the original computation, so search trajectories are bit-identical
 * with the cache on or off — only wall-clock changes.
 */

#ifndef UNICO_COMMON_SHARD_CACHE_HH
#define UNICO_COMMON_SHARD_CACHE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace unico::common {

/** A 128-bit content fingerprint (two independent 64-bit streams). */
struct Fingerprint
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const Fingerprint &other) const = default;
};

/**
 * Incremental fingerprint construction over a canonical field
 * stream. Two FNV-1a-style accumulators with distinct offsets are
 * finalized through a splitmix64 avalanche, giving 128 well-mixed
 * bits; the probability of a collision among even billions of
 * distinct design points is negligible.
 *
 * Stability matters more than speed here: the byte stream is defined
 * purely by the order and values of add() calls, so a fingerprint is
 * reproducible across runs, platforms and thread schedules.
 */
class FingerprintBuilder
{
  public:
    FingerprintBuilder &
    add(std::uint64_t v)
    {
        a_ = mix(a_ ^ v);
        b_ = mix(b_ + (v ^ kStream2));
        return *this;
    }

    FingerprintBuilder &
    add(std::int64_t v)
    {
        return add(static_cast<std::uint64_t>(v));
    }

    FingerprintBuilder &
    add(int v)
    {
        return add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    }

    FingerprintBuilder &
    add(bool v)
    {
        return add(static_cast<std::uint64_t>(v ? 1 : 2));
    }

    /** Doubles are hashed by bit pattern (exact, not approximate). */
    FingerprintBuilder &
    add(double v)
    {
        return add(std::bit_cast<std::uint64_t>(v));
    }

    FingerprintBuilder &
    add(std::string_view s)
    {
        add(static_cast<std::uint64_t>(s.size()));
        // Pack 8 bytes per mix step; the length prefix above keeps
        // concatenation ambiguities out of the stream.
        std::uint64_t word = 0;
        int n = 0;
        for (unsigned char c : s) {
            word = (word << 8) | c;
            if (++n == 8) {
                add(word);
                word = 0;
                n = 0;
            }
        }
        if (n > 0)
            add(word);
        return *this;
    }

    /** Fold an already-computed fingerprint into this stream. */
    FingerprintBuilder &
    add(const Fingerprint &fp)
    {
        return add(fp.hi).add(fp.lo);
    }

    Fingerprint
    fingerprint() const
    {
        return Fingerprint{mix(a_), mix(b_)};
    }

  private:
    /** splitmix64 finalizer (see mix64 below; duplicated here only
     *  because the free function is declared after this class). */
    static std::uint64_t
    mix(std::uint64_t z)
    {
        z += 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    static constexpr std::uint64_t kStream2 = 0x6a09e667f3bcc908ULL;

    std::uint64_t a_ = 0xcbf29ce484222325ULL;
    std::uint64_t b_ = 0x84222325cbf29ce4ULL;
};

/** splitmix64 finalizer: full-avalanche 64-bit mix (shared by
 *  FingerprintBuilder and combine()). */
inline std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Canonical, order-sensitive combination of two fingerprints. Every
 *  cache key is built as combine(query context, mapping fingerprint),
 *  so decorator-level and model-level caching share entries. One
 *  combine runs per evaluation, warm or cold, so this is hot-path
 *  cost: both inputs are already finalized full-avalanche hashes, so
 *  one extra splitmix64 round per word suffices — each output word
 *  is a bijection of the corresponding @p b word for fixed @p a, so
 *  two keys under one context collide only if the mapping
 *  fingerprints collide in both words. Keys never leave the process
 *  (the eval cache and corpus tap are in-memory), so the scheme can
 *  evolve without a compatibility shim. */
inline Fingerprint
combine(const Fingerprint &a, const Fingerprint &b)
{
    return Fingerprint{mix64(a.hi + (b.hi ^ 0x6a09e667f3bcc908ULL)),
                       mix64(a.lo ^ (b.lo + 0xbb67ae8584caa73bULL))};
}

/** Aggregated cache counters (snapshot across all shards). */
struct CacheStats
{
    std::uint64_t hits = 0;       ///< lookups served from the cache
    std::uint64_t misses = 0;     ///< lookups that fell through
    std::uint64_t insertions = 0; ///< values stored
    std::uint64_t evictions = 0;  ///< LRU entries displaced
    std::uint64_t entries = 0;    ///< currently resident entries
    std::uint64_t bytes = 0;      ///< approximate resident bytes
    std::uint64_t capacityBytes = 0; ///< configured capacity
    std::uint64_t shards = 0;     ///< stripe count

    /** Per-shard eviction counts (index = shard); shows whether LRU
     *  pressure is spread evenly or one stripe is churning. */
    std::vector<std::uint64_t> shardEvictions;

    /** Training-corpus tap counters (zero when no tap is attached;
     *  filled from CorpusTap::stats() by whoever owns the tap). */
    std::uint64_t tapRows = 0;      ///< rows currently retained
    std::uint64_t tapAppends = 0;   ///< append() calls accepted
    std::uint64_t tapDuplicates = 0; ///< appends dropped as duplicate keys
    std::uint64_t tapDrops = 0;     ///< appends dropped at capacity
    std::uint64_t tapSnapshots = 0; ///< snapshot() calls served
    std::uint64_t tapStalls = 0;    ///< snapshots that contended with writers

    /** Hit fraction of all lookups (0 when none were made). */
    double
    hitRate() const
    {
        const std::uint64_t lookups = hits + misses;
        return lookups > 0
                   ? static_cast<double>(hits) /
                         static_cast<double>(lookups)
                   : 0.0;
    }
};

/** One-line digest ("cache: hits=... misses=... ..."). */
std::string toString(const CacheStats &stats);

/**
 * A fixed-capacity LRU cache striped over independently locked
 * shards.
 *
 * The shard is selected from the fingerprint's high bits, so entries
 * spread uniformly and two concurrent lookups rarely touch the same
 * mutex. Each shard runs its own LRU list bounded by an equal slice
 * of the byte capacity; per-entry cost is accounted as sizeof(Value)
 * plus key/node overhead. All operations are thread-safe; values are
 * returned by copy (they are small PODs by design).
 */
template <typename Value>
class ShardedLruCache
{
  public:
    /** Default stripe count; plenty for the host thread counts the
     *  driver uses while keeping empty-cache overhead tiny. */
    static constexpr std::size_t kDefaultShards = 16;

    /** Approximate resident bytes per entry (value + key + node and
     *  hash-table overhead). */
    static constexpr std::size_t
    entryBytes()
    {
        return sizeof(Value) + sizeof(Fingerprint) + 64;
    }

    /**
     * @param capacity_bytes total byte budget across shards; a zero
     *        capacity disables storage (every lookup misses).
     * @param shards stripe count (>= 1).
     */
    explicit ShardedLruCache(std::size_t capacity_bytes,
                             std::size_t shards = kDefaultShards)
        : capacityBytes_(capacity_bytes)
    {
        if (shards == 0)
            shards = 1;
        // Unused capacity slack goes to the first shard so tiny
        // capacities still admit at least one entry overall.
        const std::size_t per_shard_entries =
            capacity_bytes / entryBytes() / shards;
        const std::size_t remainder_entries =
            capacity_bytes / entryBytes() % shards;
        shards_.reserve(shards);
        for (std::size_t i = 0; i < shards; ++i) {
            auto shard = std::make_unique<Shard>();
            shard->maxEntries =
                per_shard_entries + (i < remainder_entries ? 1 : 0);
            shards_.push_back(std::move(shard));
        }
    }

    /** Look up @p key; refreshes LRU order on hit. */
    std::optional<Value>
    get(const Fingerprint &key)
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(key);
        if (it == shard.map.end()) {
            ++shard.misses;
            return std::nullopt;
        }
        ++shard.hits;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return it->second->second;
    }

    /** Insert or refresh @p key; evicts LRU entries at capacity. */
    void
    put(const Fingerprint &key, const Value &value)
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (shard.maxEntries == 0)
            return;
        auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            it->second->second = value;
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            return;
        }
        shard.lru.emplace_front(key, value);
        shard.map.emplace(key, shard.lru.begin());
        ++shard.insertions;
        while (shard.lru.size() > shard.maxEntries) {
            shard.map.erase(shard.lru.back().first);
            shard.lru.pop_back();
            ++shard.evictions;
        }
    }

    /** Aggregate counters across shards (momentary snapshot). */
    CacheStats
    stats() const
    {
        CacheStats s;
        s.capacityBytes = capacityBytes_;
        s.shards = shards_.size();
        s.shardEvictions.reserve(shards_.size());
        for (const auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mutex);
            s.hits += shard->hits;
            s.misses += shard->misses;
            s.insertions += shard->insertions;
            s.evictions += shard->evictions;
            s.entries += shard->lru.size();
            s.shardEvictions.push_back(shard->evictions);
        }
        s.bytes = s.entries * entryBytes();
        return s;
    }

    /** Drop every entry; counters are preserved. */
    void
    clear()
    {
        for (auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mutex);
            shard->map.clear();
            shard->lru.clear();
        }
    }

    /** Configured byte capacity. */
    std::size_t capacityBytes() const { return capacityBytes_; }

  private:
    struct FingerprintHash
    {
        std::size_t
        operator()(const Fingerprint &fp) const
        {
            // Both words are already avalanched; fold them.
            return static_cast<std::size_t>(fp.hi ^
                                            (fp.lo * 0x9e3779b97f4a7c15ULL));
        }
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::list<std::pair<Fingerprint, Value>> lru; ///< front = MRU
        std::unordered_map<Fingerprint,
                           typename std::list<
                               std::pair<Fingerprint, Value>>::iterator,
                           FingerprintHash>
            map;
        std::size_t maxEntries = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
    };

    Shard &
    shardFor(const Fingerprint &key)
    {
        return *shards_[key.hi % shards_.size()];
    }

    std::size_t capacityBytes_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

/** One training observation for the learned surrogate: the canonical
 *  evaluation fingerprint, the extracted feature vector and the exact
 *  targets (log-latency, log-energy, area, log-loss). */
struct CorpusRow
{
    Fingerprint key;
    std::vector<double> features;
    std::vector<double> targets;
};

/**
 * Thread-safe training-corpus tap fed by exact evaluations.
 *
 * The evaluation hot path calls append() — an O(1) push plus a
 * fingerprint dedup check under a single mutex held only for that
 * push, so concurrent evaluators are never stalled behind a reader:
 * snapshot() copies the rows under the same lock but is called at
 * refit cadence (rarely), and its contention is *observable* rather
 * than silent — a snapshot that finds the mutex held counts a stall
 * in TapStats before blocking.
 *
 * The tap is observability/offline-corpus plumbing only: the online
 * screens train on their own run-local exact evals so that serial and
 * threaded runs stay byte-identical. snapshot() returns rows sorted
 * canonically by fingerprint so corpus dumps are reproducible across
 * thread schedules.
 */
class CorpusTap
{
  public:
    /** Aggregated tap counters (names mirror the CacheStats fields). */
    struct TapStats
    {
        std::uint64_t rows = 0;
        std::uint64_t appends = 0;
        std::uint64_t duplicates = 0;
        std::uint64_t drops = 0;
        std::uint64_t snapshots = 0;
        std::uint64_t stalls = 0;
    };

    /** Bounds retained rows; appends beyond it are counted and dropped
     *  (newest-loses keeps the retained set insertion-stable). */
    static constexpr std::size_t kDefaultMaxRows = 1 << 16;

    explicit CorpusTap(std::size_t max_rows = kDefaultMaxRows)
        : maxRows_(max_rows)
    {}

    /** Record one exact evaluation; duplicate keys are dropped. */
    void append(CorpusRow row);

    /** Copy of the retained rows, sorted by fingerprint (hi, lo). */
    std::vector<CorpusRow> snapshot() const;

    TapStats stats() const;

    /** Fold tap counters into a cache-stats snapshot for reporting. */
    void mergeInto(CacheStats &stats) const;

  private:
    struct FingerprintHash
    {
        std::size_t
        operator()(const Fingerprint &fp) const
        {
            return static_cast<std::size_t>(fp.hi ^
                                            (fp.lo * 0x9e3779b97f4a7c15ULL));
        }
    };

    mutable std::mutex mutex_;
    std::size_t maxRows_;
    std::vector<CorpusRow> rows_;
    std::unordered_map<Fingerprint, std::size_t, FingerprintHash> seen_;
    std::uint64_t appends_ = 0;
    std::uint64_t duplicates_ = 0;
    std::uint64_t drops_ = 0;
    mutable std::uint64_t snapshots_ = 0;
    mutable std::uint64_t stalls_ = 0;
};

} // namespace unico::common

#endif // UNICO_COMMON_SHARD_CACHE_HH
