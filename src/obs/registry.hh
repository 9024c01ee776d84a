/**
 * @file
 * The hierarchical statistics registry.
 *
 * Components register named counters / distributions / histograms /
 * time-series at construction into one per-Gpu StatsRegistry. Names are
 * dotted paths ("gpu.sa3.cu1.txs_issued", "mem.l2.bank5.hits",
 * "engine.events_executed"); storage is a flat ordered map keyed by the
 * full path, which makes lazy registration, prefix/suffix aggregation
 * (sumCounters) and deterministic iteration trivial, while report()
 * renders the dotted names as an indented component tree.
 *
 * Registration is kind-checked: registering the same path as two
 * different stat kinds is a simulator bug and panics immediately, so a
 * component cannot silently alias another component's stat.
 */

#ifndef LAZYGPU_OBS_REGISTRY_HH
#define LAZYGPU_OBS_REGISTRY_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/serialize.hh"
#include "sim/types.hh"

namespace lazygpu
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void operator+=(std::uint64_t n) { value_ += n; }
    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    /** Checkpoint restore: overwrite the running value. */
    void restore(std::uint64_t v) { value_ = v; }

  private:
    std::uint64_t value_ = 0;
};

/** Running scalar distribution: count / sum / min / max / mean. */
class Distribution
{
  public:
    void
    sample(double v)
    {
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        sum_ += v;
        ++count_;
    }

    /**
     * Fold other's samples into this distribution (used by the Gpu to
     * combine per-SA shard distributions in a fixed order — note
     * floating-point sum_ makes merge order part of the result unless
     * every sample is an integer).
     */
    void
    merge(const Distribution &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0 || other.min_ < min_)
            min_ = other.min_;
        if (count_ == 0 || other.max_ > max_)
            max_ = other.max_;
        sum_ += other.sum_;
        count_ += other.count_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    void
    reset()
    {
        count_ = 0;
        sum_ = min_ = max_ = 0.0;
    }

    /** Checkpoint restore: overwrite the running aggregate exactly. */
    void
    restore(std::uint64_t count, double sum, double min, double max)
    {
        count_ = count;
        sum_ = sum;
        min_ = min;
        max_ = max;
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A log2-bucketed latency histogram over unsigned samples (cycle
 * counts). Bucket 0 holds the value 0; bucket i >= 1 holds
 * [2^(i-1), 2^i). count/sum/min/max are exact, so mean() is exact;
 * percentile() is bucket-resolution (linear interpolation inside the
 * winning bucket, clamped to the observed min/max).
 */
class Histogram
{
  public:
    static constexpr unsigned numBuckets = 64;

    void
    sample(std::uint64_t v)
    {
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        sum_ += v;
        ++count_;
        ++buckets_[bucketIndex(v)];
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return count_ ? max_ : 0; }
    double mean() const
    {
        return count_ ? static_cast<double>(sum_) / count_ : 0.0;
    }

    /** Fold other's samples into this histogram (exact: all integers). */
    void
    merge(const Histogram &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0 || other.min_ < min_)
            min_ = other.min_;
        if (count_ == 0 || other.max_ > max_)
            max_ = other.max_;
        sum_ += other.sum_;
        count_ += other.count_;
        for (unsigned i = 0; i < numBuckets; ++i)
            buckets_[i] += other.buckets_[i];
    }

    std::uint64_t bucket(unsigned i) const { return buckets_[i]; }

    /** Lower edge of bucket i (0, 1, 2, 4, 8, ...). */
    static std::uint64_t
    bucketLo(unsigned i)
    {
        return i == 0 ? 0 : std::uint64_t(1) << (i - 1);
    }

    /** Exclusive upper edge of bucket i (1, 2, 4, 8, ...). */
    static std::uint64_t
    bucketHi(unsigned i)
    {
        return i == 0 ? 1 : std::uint64_t(1) << i;
    }

    static unsigned bucketIndex(std::uint64_t v);

    /** The p-th percentile (p in [0, 100]); 0 when empty. */
    double percentile(double p) const;

    void
    reset()
    {
        buckets_.fill(0);
        count_ = sum_ = min_ = max_ = 0;
    }

    /** Checkpoint restore: overwrite the aggregate and bucket array. */
    void
    restore(std::uint64_t count, std::uint64_t sum, std::uint64_t min,
            std::uint64_t max,
            const std::array<std::uint64_t, numBuckets> &buckets)
    {
        count_ = count;
        sum_ = sum;
        min_ = min;
        max_ = max;
        buckets_ = buckets;
    }

  private:
    std::array<std::uint64_t, numBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/** A (tick, value) series, e.g. Fig 2's latency-over-time traces. */
class TimeSeries
{
  public:
    struct Point
    {
        Tick tick;
        double value;
    };

    void sample(Tick t, double v) { points_.push_back({t, v}); }
    const std::vector<Point> &points() const { return points_; }
    void reset() { points_.clear(); }

  private:
    std::vector<Point> points_;
};

/**
 * The registry of named statistics. Accessors create the stat on first
 * use and return a reference that stays valid for the registry's
 * lifetime (components keep references; the registry owns the objects,
 * so results can be read after the components are destroyed).
 */
class StatsRegistry
{
  public:
    /** What a name is registered as (collision checking / traversal). */
    enum class Kind : std::uint8_t
    {
        Counter,
        Distribution,
        Histogram,
        TimeSeries,
    };

    Counter &counter(const std::string &name);
    Distribution &dist(const std::string &name);
    Histogram &hist(const std::string &name);
    TimeSeries &series(const std::string &name);

    /** Sum of every counter whose name matches prefix + "*" + suffix. */
    std::uint64_t sumCounters(const std::string &prefix,
                              const std::string &suffix = "") const;

    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Distribution> &dists() const
    {
        return dists_;
    }
    const std::map<std::string, Histogram> &hists() const
    {
        return hists_;
    }
    const std::map<std::string, TimeSeries> &allSeries() const
    {
        return series_;
    }

    /** Every registered (name, kind), ordered by name. */
    const std::map<std::string, Kind> &registered() const
    {
        return registered_;
    }

    /** Zero every stat; registrations (and references) stay valid. */
    void reset();

    /**
     * Serialize every stat's current value (not its registration: the
     * restoring registry re-creates the same name set by constructing
     * the same components, so only values travel). Deterministic byte
     * stream: the maps iterate in name order.
     */
    void checkpointTo(ByteWriter &w) const;

    /**
     * Restore stat values saved by checkpointTo. Names that do not
     * exist yet are created with the saved kind (harmless for stats
     * registered lazily on first use); a cross-kind collision panics
     * via the usual registration check.
     */
    void restoreFrom(ByteReader &r);

    /** Render every counter/distribution as "name value" lines. */
    std::string dump() const;

    /**
     * The --stats-json rendering: every stat as JSON, grouped by kind,
     * keys in name order, doubles printed with round-trip precision —
     * byte-stable for a byte-stable simulation. (Percentiles, including
     * p999, are reported for histograms only: Distribution keeps no
     * buckets, so it has count/mean/min/max and nothing in between.)
     */
    std::string dumpJson() const;

    /**
     * The --report rendering: the dotted names as an indented
     * component tree, counters as plain values, distributions and
     * histograms with their summary stats.
     */
    std::string report() const;

  private:
    /** Record name as kind; panic on a cross-kind collision. */
    void checkKind(const std::string &name, Kind kind);

    std::map<std::string, Counter> counters_;
    std::map<std::string, Distribution> dists_;
    std::map<std::string, Histogram> hists_;
    std::map<std::string, TimeSeries> series_;
    std::map<std::string, Kind> registered_;
};

} // namespace lazygpu

#endif // LAZYGPU_OBS_REGISTRY_HH
