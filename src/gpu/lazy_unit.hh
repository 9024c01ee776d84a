/**
 * @file
 * LazyUnit: the paper's Lazy Unit (Sec 4) as one timing-agnostic block,
 * shared by the timed ComputeUnit and the functional RabbitExecutor.
 *
 * It owns every sparsity rule of the pipeline: instruction semantics
 * (scalar ops, VALU on the vectorized plane core, the store write path),
 * load recording (footprint, encodability, mask coalescing), the
 * four-bitmap scoreboard transitions (record, optimization (2) suspend,
 * requalify, resolve), the decode-window bundled issue, optimization (1)
 * zero materialisation, the Fig 14 outcome classification, and
 * dead-on-overwrite / retire-time elimination. Its 17 sparsity counters
 * are registered once, under the owning executor's prefix.
 *
 * What differs between the two executors is behind the Port: how a
 * selected data transaction or zero-mask probe reaches memory, and when
 * its response is applied. The CU schedules it on the memory hierarchy
 * and applies the response (fill / zeroFill / applyZeroMask) in a
 * callback; the rabbit applies it at once.
 *
 * One LazyUnit per executor: under --sa-threads a CU's unit runs on its
 * domain thread, so nothing mutable here is shared across units.
 */

#ifndef LAZYGPU_GPU_LAZY_UNIT_HH
#define LAZYGPU_GPU_LAZY_UNIT_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gpu/coalescer.hh"
#include "gpu/wavefront.hh"
#include "mem/memory.hh"
#include "obs/lifecycle.hh"
#include "obs/registry.hh"
#include "sim/config.hh"
#include "sim/engine.hh"

namespace lazygpu
{

namespace inject
{
class Injector;
}

/**
 * A load's footprint (Sec 4.1): clear txs, then partition the load's
 * (register, lane) words into its 32 B transactions, in lane-major,
 * then register, order of each transaction's first word, with every
 * transaction's unresolved count set to its word count. Panics when a
 * word straddles a transaction. Returns whether some lane's upper
 * address bits differ from lane 0's (the load is not encodable).
 */
bool loadFootprint(Opcode op,
                   const std::array<Addr, wavefrontSize> &lane_addr,
                   std::vector<PendingLoad::Tx> &txs);

class LazyUnit
{
  public:
    /** What execute() did with the instruction at the wave's pc. */
    enum class Step : std::uint8_t
    {
        Done,   //!< executed; pc advanced or branched
        Wait,   //!< a source or the destination is still busy; retry
        Endpgm, //!< s_endpgm: parked loads eliminated, wave retired
    };

    /**
     * The memory side: where the timed CU and the rabbit differ. Every
     * call is made after the Lazy Unit has updated its own state and
     * counters for the request.
     */
    class Port
    {
      public:
        virtual ~Port() = default;

        /** The decode window wants pl's data (the CU parks the request
         *  while pl's zero masks are in flight, Fig 7). */
        virtual void requestIssue(Wavefront &wave, PendingLoad &pl) = 0;

        /** Probe the zero masks of a just-recorded load, one request per
         *  coalesced mask transaction. */
        virtual void probeMasks(Wavefront &wave, PendingLoad &pl,
                                const std::vector<Addr> &mask_txs) = 0;

        /** EagerZC: is this mask line resident in the L1 Zero Cache? */
        virtual bool maskResident(Addr mask_addr) = 0;

        /** Send one data transaction; its response is fill(). */
        virtual void sendData(Wavefront &wave, PendingLoad &pl,
                              PendingLoad::Tx &tx) = 0;

        /** EagerZC short-circuit of tx; its response is zeroFill(). */
        virtual void shortCircuit(Wavefront &wave, PendingLoad &pl,
                                  PendingLoad::Tx &tx) = 0;

        /** Store path: one posted mask write transaction. */
        virtual void writeMask(Addr) {}

        /** Store path: one data write transaction, or (zero_skipped) the
         *  all-zero block whose write only reaches the Zero Cache. */
        virtual void writeData(Addr, bool /*zero_skipped*/) {}
    };

    /** Same contract as ComputeUnit::setRetireObserver. */
    using RetireObserver = std::function<void(const Wavefront &)>;

    /**
     * @param prefix counter prefix, e.g. "gpu.sa0.cu1." or "gpu.rabbit.".
     * @param clock,lifecycle the timed CU's engine and lifecycle tracker;
     *        null on the rabbit, which has no time and samples nothing.
     */
    LazyUnit(const GpuConfig &cfg, GlobalMemory &mem, StatsRegistry &stats,
             const std::string &prefix, Port &port, const Engine *clock,
             LifecycleTracker *lifecycle);

    void setRetireObserver(RetireObserver obs)
    {
        retire_obs_ = std::move(obs);
    }

    /** Fault injection on the data, zero-probe and scoreboard paths. */
    void setInjector(inject::Injector *inj) { inject_ = inj; }

    /** A kernel launches: drop the decode-window table (a new kernel may
     *  occupy a freed one's address). */
    void beginKernel() { window_kernel_ = nullptr; }

    /** Execute inst, the instruction at wave.pc. */
    Step execute(Wavefront &wave, const Instruction &inst);

    /**
     * Decode look-ahead (Sec 4.3): suspend otimes sources whose
     * counterpart is a known zero, then request issue of every pending
     * load consumed within the next straight-line instructions -- the
     * bundled issue GCN's s_waitcnt implies. Later consumers (software-
     * pipelined prefetches) stay lazy.
     */
    void windowIssue(Wavefront &wave);

    /** Issue every unissued transaction of pl that still has a Pending
     *  word; may remove pl when the port resolves synchronously. */
    void issue(Wavefront &wave, PendingLoad &pl);

    // --- Responses -------------------------------------------------------
    /** Data response of tx: load every busy word from memory (counted
     *  as one completed transaction). */
    void fill(Wavefront &wave, PendingLoad &pl, PendingLoad::Tx &tx);

    /** EagerZC short-circuit response: every busy word of tx reads 0. */
    void zeroFill(Wavefront &wave, PendingLoad &pl, PendingLoad::Tx &tx);

    /**
     * Zero-mask response covering data [lo, hi): optimization (1)
     * materialises each Pending zero word of an unissued transaction
     * without memory traffic. May remove pl.
     */
    void applyZeroMask(Wavefront &wave, PendingLoad &pl, Addr lo, Addr hi);

    /** Remove pl once every word is resolved (recycling its tx list). */
    void finishIfResolved(Wavefront &wave, PendingLoad &pl);

  private:
    Step execScalar(Wavefront &wave, const Instruction &inst);
    Step execValu(Wavefront &wave, const Instruction &inst);
    Step execLoad(Wavefront &wave, const Instruction &inst);
    Step execStore(Wavefront &wave, const Instruction &inst);
    void retire(Wavefront &wave);

    /**
     * Make regs readable: requalify stale suspensions and, when any lane
     * is still busy, run the decode window. False while a lane of regs
     * is Pending or InFlight (only the timed path ever waits).
     */
    bool makeReady(Wavefront &wave, const Instruction &inst,
                   const std::vector<unsigned> &regs);

    /** WAW guard (false while a lane is InFlight), then dead-on-
     *  overwrite elimination of the parked words of the registers. */
    bool prepareOverwrite(Wavefront &wave, unsigned first, unsigned nregs);

    /**
     * Lanes where inst's otimes counterpart of source reg is a Ready
     * zero, so reg's value cannot matter (Sec 4.3); 0 unless inst is an
     * otimes instruction in a mode with optimization (2).
     */
    LaneMask counterpartZero(const Wavefront &wave, const Instruction &inst,
                             unsigned reg) const;
    void trySuspend(Wavefront &wave, PendingLoad &pl,
                    const Instruction &inst, unsigned reg);

    void record(Wavefront &wave, const Instruction &inst,
                const std::array<Addr, wavefrontSize> &lane_addr);
    void eliminateForRegs(Wavefront &wave, unsigned first, unsigned nregs);

    /**
     * Resolve the busy lanes of m in register reg_off of tx to 0 with no
     * memory traffic (zero mask, elimination or EagerZC short-circuit).
     * If that resolved the last word of an unissued tx, classify why it
     * will never be issued (Fig 14): once per transaction.
     */
    void resolveZero(Wavefront &wave, PendingLoad &pl, PendingLoad::Tx &tx,
                     unsigned reg_off, LaneMask m);

    /** The lanes of cand whose word (reg_off, lane) of tx is zero, per
     *  tx's zero mask byte zmb. */
    static LaneMask zeroLanesOf(const PendingLoad &pl,
                                const PendingLoad::Tx &tx, unsigned reg_off,
                                LaneMask cand, std::uint8_t zmb);

    /**
     * One statically known decode-window operand: the instruction and
     * register a scan from some pc considers. The window depends only
     * on the kernel text, so it is precomputed per pc.
     */
    struct WindowCand
    {
        const Instruction *inst;
        unsigned reg;
        bool otimesSrc;
    };
    void buildWindowCands(const Kernel &kernel);

    Tick now() const { return clock_ ? clock_->now() : 0; }

    const GpuConfig &cfg_;
    GlobalMemory &mem_;
    Port &port_;
    const Engine *clock_;
    LifecycleTracker *lifecycle_;
    inject::Injector *inject_ = nullptr;
    RetireObserver retire_obs_;
    const ExecMode mode_;
    /** Zero Caches exist (the MemoryHierarchy construction condition). */
    const bool zc_;

    /** The decode window's length in instructions. */
    static constexpr unsigned lookAhead = 12;
    const Kernel *window_kernel_ = nullptr;
    /** The candidates of every pc, back to back; pc's run starts at
     *  window_start_[pc] and ends at window_start_[pc + 1]. */
    std::vector<WindowCand> window_cands_;
    std::vector<unsigned> window_start_;

    // Scratch, retained across instructions so the steady state
    // allocates nothing.
    std::vector<unsigned> scratch_srcs_;
    /** (slot, id) of each load the decode window issues. */
    std::vector<std::pair<unsigned, unsigned>> scratch_issue_;
    std::array<Addr, wavefrontSize> scratch_lane_addr_{};
    std::vector<Addr> scratch_txs_;
    std::vector<PendingLoad::Tx> scratch_footprint_;
    std::vector<Addr> scratch_mask_bytes_;
    std::vector<Addr> scratch_mask_txs_;
    /** (id, slot) of each load retire eliminates, sorted by id. */
    std::vector<std::pair<unsigned, unsigned>> scratch_retire_;
    /** Finished PendingLoads, with their transaction vectors' heap
     *  blocks, recycled by record: live plus pooled loads never exceed
     *  the unit's peak number of live loads, rounded up to a chunk. */
    std::vector<PendingLoad *> load_pool_;
    /** Storage of every load the unit ever made, loadChunk at a time. */
    std::vector<std::unique_ptr<PendingLoad[]>> load_chunks_;
    static constexpr unsigned loadChunk = 16;
    Coalescer coalescer_;

    Counter &valu_insts_;
    Counter &salu_insts_;
    Counter &load_insts_;
    Counter &store_insts_;
    Counter &txs_issued_;
    Counter &txs_completed_;
    Counter &txs_elim_zero_;
    Counter &txs_elim_otimes_;
    Counter &txs_elim_dead_;
    Counter &txs_eager_fallback_;
    Counter &store_txs_;
    Counter &store_txs_zero_skipped_;
    Counter &mask_reads_;
    Counter &mask_writes_;
    Counter &zc_short_circuits_;
    Counter &lanes_zeroed_;
    Counter &lanes_suspended_;
};

} // namespace lazygpu

#endif // LAZYGPU_GPU_LAZY_UNIT_HH
