/**
 * @file
 * ComputeUnit: one GCN3-style CU with four SIMD units, the wavefront
 * scheduler, the LSU, and the timed memory port of the paper's Lazy
 * Unit (gpu/lazy_unit.hh holds the sparsity rules themselves).
 *
 * The CU implements every execution mode of the paper:
 *  - Baseline: loads issue eagerly at execute; the scoreboard (busy bits)
 *    stalls the first use.
 *  - LazyCore: loads are recorded into PendingLoad metadata; the Lazy
 *    Unit issues them when a dependent instruction first reads a busy
 *    register (Sec 4.1).
 *  - LazyCore+(1): a zero-mask fetch is launched at record time; words
 *    that are zero are materialised without memory traffic, and
 *    transactions whose every needed word is zero are eliminated
 *    (Sec 4.2).
 *  - LazyGPU (+(2)): lanes feeding an otimes instruction whose
 *    counterpart operand is zero are suspended and eliminated on
 *    overwrite/retire (Sec 4.3).
 *  - EagerZC: eager issue with zero caches probed in parallel (the
 *    comparison point of Fig 9).
 */

#ifndef LAZYGPU_GPU_COMPUTE_UNIT_HH
#define LAZYGPU_GPU_COMPUTE_UNIT_HH

#include <functional>
#include <memory>
#include <vector>

#include "gpu/lazy_unit.hh"
#include "gpu/wavefront.hh"
#include "mem/hierarchy.hh"
#include "mem/memory.hh"
#include "obs/cycacct.hh"
#include "obs/lifecycle.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/config.hh"
#include "sim/engine.hh"

namespace lazygpu
{

namespace inject
{
class Injector;
}

class ComputeUnit : public Clocked, private LazyUnit::Port
{
  public:
    /**
     * `engine` is the CU's shader-array domain engine. `mem_latency` is
     * the distribution every completed data transaction's latency is
     * sampled into: the Gpu passes a per-SA shard distribution (merged
     * in a fixed order at the end of each run, keeping the
     * floating-point sum independent of the thread count).
     */
    ComputeUnit(Engine &engine, StatsRegistry &stats,
                LifecycleTracker &lifecycle, Distribution &mem_latency,
                const GpuConfig &cfg, GlobalMemory &mem,
                MemoryHierarchy &hier, unsigned cu_id, unsigned sa_id,
                TraceSink *trace);

    /**
     * A kernel launches: n is its occupancy limit (register-usage
     * bound), and the Lazy Unit drops its old decode-window table.
     */
    void
    beginKernel(unsigned n)
    {
        max_waves_ = n;
        lazy_.beginKernel();
    }
    unsigned maxWaves() const { return max_waves_; }
    unsigned residentWaves() const
    {
        return static_cast<unsigned>(waves_.size());
    }
    bool hasFreeSlot() const { return residentWaves() < max_waves_; }

    /** Install a dispatched wavefront. */
    void addWavefront(std::unique_ptr<Wavefront> wave);

    /** Invoked whenever a wavefront fully retires (slot freed). */
    void setRetireCallback(std::function<void()> cb)
    {
        retire_cb_ = std::move(cb);
    }

    /**
     * Verification hook: invoked at retire() entry, before the Lazy
     * Unit eliminates still-parked loads, so the observer sees which
     * register lanes were architecturally live (Ready) at retirement.
     */
    using RetireObserver = LazyUnit::RetireObserver;
    void setRetireObserver(RetireObserver obs)
    {
        lazy_.setRetireObserver(std::move(obs));
    }

    /**
     * Arm (or disarm, with nullptr) fault injection on this CU. The Gpu
     * only arms the one CU the plan targets; every other CU keeps the
     * null pointer, so the injection-off path is a single predicted
     * branch per site (the trace-sink pattern).
     */
    void
    setInjector(inject::Injector *inj)
    {
        inject_ = inj;
        lazy_.setInjector(inj);
    }

    // Clocked interface.
    void tick() override;
    bool quiescent() const override;

    // --- Cycle accounting (CPI stacks, DESIGN.md §16) --------------------
    /**
     * Enable per-CU cycle accounting: registers the bucket counters and
     * makes tick() charge every cycle. When a sampler is given the
     * account is registered with it so interval snapshots can flush the
     * lazy gap cursor. Must be called before the
     * first tick; off, the cost is one predicted null-pointer branch.
     */
    void enableCycleAccounting(cycacct::IntervalSampler *sampler);

    /**
     * Close the open stall interval at this CU's current engine time (its
     * SA domain's clock; domains stop at different ticks). Under LAZYGPU_CHECK, panics
     * unless the buckets sum exactly to the elapsed cycles.
     */
    void finalizeCycleAccounting();

    /**
     * Checkpoint restore: bucket counters were restored through the
     * registry; re-base the account cursor to the restored engine time so
     * the pre-checkpoint cycles are not charged twice.
     */
    void syncCycleAccounting();

    /**
     * Kernel-dispatch progress from the Gpu: false while the running
     * kernel still has undispatched wavefronts, true once the dispatch
     * cursor is exhausted. Splits empty-CU cycles into fetch-empty
     * (waiting for work that exists) vs drained-idle (tail of the run).
     */
    void setDispatchExhausted(bool exhausted);

    const cycacct::CuCycleAccount *cycleAccount() const
    {
        return cyc_.get();
    }

    /**
     * Append one state-dump line per resident wavefront (plus a CU
     * summary line) for crash snapshots, in the src/verif dump
     * vocabulary: wave/lane/pending-load/outstanding-tx terms. Pure
     * reads; safe to call from any pipeline state.
     */
    void describeInto(std::vector<std::string> &out) const;

  private:
    // --- Scheduling ------------------------------------------------------
    Wavefront *pickWave(unsigned simd);
    void executeOne(Wavefront &wave, unsigned simd);

    /**
     * Every wavefront status change goes through here: it maintains the
     * CU's ready-wave count and reports 0 <-> nonzero transitions to the
     * engine's active-clocked count (the quiescence protocol).
     */
    void setStatus(Wavefront &wave, WaveStatus s);
    void noteReadyDelta(int delta);

    // --- Lazy Unit port: the hierarchy, with responses in callbacks ------
    void requestIssue(Wavefront &wave, PendingLoad &pl) override;
    void probeMasks(Wavefront &wave, PendingLoad &pl,
                    const std::vector<Addr> &mask_txs) override;
    bool maskResident(Addr mask_addr) override;
    void sendData(Wavefront &wave, PendingLoad &pl,
                  PendingLoad::Tx &tx) override;
    void shortCircuit(Wavefront &wave, PendingLoad &pl,
                      PendingLoad::Tx &tx) override;
    void writeMask(Addr mask_addr) override;
    void writeData(Addr tx_addr, bool zero_skipped) override;

    /** The issued words of tx (Pending or Suspended) become InFlight. */
    static void markInFlight(Wavefront &wave, const PendingLoad &pl,
                             const PendingLoad::Tx &tx);

    /**
     * One data transaction, short-circuit or zero-mask probe in the
     * memory system: everything its response needs. The response
     * completion captures only {this, flight slot}.
     */
    struct Flight
    {
        Wavefront *wave;
        unsigned plSlot; //!< the load's slot and id (Wavefront::pendingAt)
        unsigned plId;
        unsigned txIdx;  //!< index into the load's txs (data only)
        Addr addr;       //!< data or mask transaction address
        Tick issueTick;  //!< when the data transaction was sent
        Tick recordTick; //!< when the load was recorded
        std::uint64_t spanId; //!< trace span (0 when not tracing)
    };
    unsigned addFlight(const Flight &f);
    /** Copy out slot's flight and free the slot. */
    Flight takeFlight(unsigned slot);
    void onMaskResponse(unsigned slot);
    void onDataResponse(unsigned slot);

    // --- Transaction plumbing -----------------------------------------------
    /** Issue one data transaction through the LSU pipe; cb on response. */
    void issueTx(Addr addr, bool write, Completion cb);
    void issueMaskTx(Addr mask_addr, bool write, Completion cb);
    void wake(Wavefront &wave);

    /** Destroy the wavefront if it is Done and fully drained. */
    void maybeFinalize(Wavefront *wave);

    /** This CU's id as a trace track (CU tracks are global CU ids). */
    std::uint16_t traceTrack() const
    {
        return static_cast<std::uint16_t>(cu_id_);
    }

    /**
     * LaneBitmapFlip landing: corrupt one lane bit of the scoreboard
     * bitmaps of the first resident wavefront that has a Suspended (else
     * Pending) lane, or else of a zero bitmap (the seed picks the lane);
     * a no-op without optimization (2). Called from tick() after the
     * injector arms.
     */
    void corruptLaneBitmap();

    // --- Cycle accounting internals --------------------------------------
    /**
     * Exclusive stall class of a quiescent CU right now (DESIGN.md §16
     * priority order): outstanding data txs -> MshrBackpressure when the
     * SA's L1 is saturated, else MemLatency; else outstanding mask
     * probes -> SuspZero; else a Waiting wave -> ScoreboardWait; else no
     * resident waves -> FetchEmpty / DrainedIdle by dispatch progress.
     */
    cycacct::Bucket classifyStall() const;

    /**
     * Mid-gap reclassification hook, appended to every async callback
     * that can change what a quiescent CU is waiting on.
     */
    void
    restallIfQuiescent()
    {
        if (cyc_ && ready_waves_ == 0)
            cyc_->restall(engine_.now(), classifyStall());
    }

    Engine &engine_;
    StatsRegistry &stats_;
    LifecycleTracker &lifecycle_;
    TraceSink *trace_;
    inject::Injector *inject_ = nullptr;
    const GpuConfig &cfg_;
    MemoryHierarchy &hier_;
    const unsigned cu_id_;
    const unsigned sa_id_;
    const ExecMode mode_;

    unsigned max_waves_ = 0;
    std::vector<std::unique_ptr<Wavefront>> waves_;

    // Cycle accounting (nullptr unless cfg.cycleAccounting).
    std::unique_ptr<cycacct::CuCycleAccount> cyc_;
    /** True once the running kernel has no undispatched wavefronts. */
    bool dispatch_exhausted_ = true;

    std::vector<Tick> simd_busy_;
    std::function<void()> retire_cb_;

    /** Waves with status Ready; quiescent() is this count being zero. */
    unsigned ready_waves_ = 0;
    /** Each SIMD's resident waves in dispatch order (waves_ filtered by
     *  simdId; Wavefront::simdPos indexes it). */
    std::vector<std::vector<Wavefront *>> simd_waves_;
    /** Per SIMD: bit i set iff simd_waves_[simd][i] is Ready. */
    std::vector<std::uint64_t> simd_ready_;

    /** In-flight requests by slot; grows to the CU's peak in flight. */
    std::vector<Flight> flights_;
    std::vector<unsigned> free_flights_;

    Counter &simd_busy_cycles_;
    LazyUnit lazy_;
    Distribution &mem_latency_;
};

} // namespace lazygpu

#endif // LAZYGPU_GPU_COMPUTE_UNIT_HH
