/**
 * @file
 * Wavefront: the architectural context of one 64-lane wavefront.
 *
 * Holds the program counter, scalar registers, per-lane vector register
 * values, the per-register lane bitmaps that implement the paper's busy
 * bits, and the PendingLoad records that model the lazy in-register
 * transaction metadata of Sec 4.1. All members here are pure state
 * transitions; the LazyUnit applies the rules and the ComputeUnit drives
 * timing.
 */

#ifndef LAZYGPU_GPU_WAVEFRONT_HH
#define LAZYGPU_GPU_WAVEFRONT_HH

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "isa/kernel.hh"
#include "isa/simd.hh"
#include "sim/types.hh"

namespace lazygpu
{

/** One lane mask per destination register of a load (LoadDwordX4 has
 *  the most). */
using RegMasks = std::array<LaneMask, 4>;

/** One (vreg, lane) scoreboard state, as Wavefront::regState derives it
 *  from the per-register lane bitmaps. */
enum class RegState : std::uint8_t
{
    Ready = 0,
    Pending,   //!< lazy load recorded, request not yet issued (busy bit)
    InFlight,  //!< request issued to the memory system (busy bit)
    Suspended, //!< optimization (2): deferred because the otimes
               //!< counterpart operand is zero
};

/** How a transaction of a pending load was finally resolved (Fig 14). */
enum class TxOutcome : std::uint8_t
{
    Unissued = 0,
    Issued,
    EliminatedZero,   //!< optimization (1)
    EliminatedOtimes, //!< optimization (2)
    EliminatedDead,   //!< overwritten / retired while still pending
};

/**
 * One lazily recorded load instruction (Sec 4.1, Fig 6).
 *
 * The real hardware packs {inst type, offset, address low bits} into the
 * destination registers themselves and keeps the 35 shared upper bits per
 * register group; we keep the expanded form for simulation and enforce
 * the encodability rule (lanes disagreeing in the upper bits are issued
 * eagerly) at record time.
 */
struct PendingLoad
{
    unsigned id = 0; //!< unique per wavefront; assigned by emplacePending
    Opcode op = Opcode::LoadDword;
    unsigned firstDst = 0;
    unsigned numRegs = 1;
    /** Per-lane address of the first destination register's word. */
    std::array<Addr, wavefrontSize> laneAddr{};
    bool maskRequested = false;
    unsigned masksOutstanding = 0; //!< zero-mask reads still in flight
    /**
     * A consumer asked for the data while the Zero Read Rsp was still
     * outstanding; issue as soon as the masks arrive (Fig 7 orders the
     * Read Req strictly after the Zero Read Rsp).
     */
    bool issueRequested = false;
    bool dataIssued = false; //!< issue was triggered at least once
    unsigned inflightTxs = 0; //!< issued but not yet completed
    Tick recordTick = 0; //!< when the Lazy Unit recorded the load

    /** One 32 B transaction of the load's footprint. */
    struct Tx
    {
        Addr addr = 0; //!< transaction-aligned
        /**
         * The words this transaction feeds: bit lane of words[r] is
         * word (r, lane). Every word of a load belongs to exactly one of
         * its transactions, so the load's transactions partition its
         * words.
         */
        RegMasks words{};
        TxOutcome outcome = TxOutcome::Unissued;
        unsigned unresolved = 0;   //!< words not yet Ready/eliminated
        unsigned zeroedWords = 0;  //!< words resolved by the zero mask
        bool hadSuspended = false; //!< ever held a (2)-suspended word

        unsigned
        wordCount() const
        {
            unsigned n = 0;
            for (LaneMask m : words)
                n += static_cast<unsigned>(std::popcount(m));
            return n;
        }

        /** Visit every word as f(reg offset, lane), lane-major then
         *  register order (the order paths that must replay a fixed
         *  word sequence rely on). */
        template <typename F>
        void
        forEachWord(F &&f) const
        {
            LaneMask any = 0;
            for (LaneMask m : words)
                any |= m;
            for (; any; any &= any - 1) {
                const unsigned lane =
                    static_cast<unsigned>(std::countr_zero(any));
                for (unsigned r = 0; r < words.size(); ++r) {
                    if ((words[r] >> lane) & 1)
                        f(r, lane);
                }
            }
        }
    };

    std::vector<Tx> txs;
    unsigned wordsLeft = 0; //!< unresolved words across all txs
    /** The slot store index (see Wavefront::pendingAt). */
    unsigned slot = 0;

    /** Per-lane word address for destination register first+reg_off. */
    Addr
    wordAddr(unsigned reg_off, unsigned lane) const
    {
        return laneAddr[lane] + 4ull * reg_off;
    }
};

/** Wavefront scheduling status. */
enum class WaveStatus : std::uint8_t
{
    Ready,   //!< can be picked by the SIMD scheduler
    Waiting, //!< stalled on busy source registers
    Done,
};

class Wavefront
{
  public:
    Wavefront(const Kernel &kernel, unsigned wid);

    const Kernel &kernel() const { return *kernel_; }
    unsigned wid() const { return wid_; }

    unsigned pc = 0;
    unsigned simdId = 0; //!< the SIMD unit this wavefront is pinned to
    /** Position in its SIMD's dispatch-ordered wave list (the CU's). */
    unsigned simdPos = 0;
    WaveStatus status = WaveStatus::Ready;
    bool scc = false;
    Tick nextIssue = 0; //!< earliest tick the next instruction may issue
    Tick dispatchTick = 0;
    std::uint64_t traceId = 0; //!< trace span id (0 when not tracing)

    std::vector<std::uint32_t> sregs;

    // --- Vector register file slice ------------------------------------
    //
    // Each architectural register is one contiguous 64-lane plane
    // (values_[r]), shadowed by the scoreboard as three bitmaps (busy /
    // suspended / in-flight lanes as one LaneMask each; suspended and
    // in-flight lanes are busy, and never both) and a zero bitmap (bit
    // set iff the lane's word is 0). A lane's RegState is derived from
    // the bitmaps. Every per-lane write keeps them coherent; the bulk
    // helpers below take whole-mask shortcuts instead.

    std::uint32_t
    vreg(unsigned r, unsigned lane) const
    {
        return values_[r][lane];
    }

    void
    setVreg(unsigned r, unsigned lane, std::uint32_t v)
    {
        values_[r][lane] = v;
        const LaneMask bit = LaneMask(1) << lane;
        regs_[r].zero = (regs_[r].zero & ~bit) | (LaneMask(v == 0) << lane);
    }

    RegState
    regState(unsigned r, unsigned lane) const
    {
        const LaneMask bit = LaneMask(1) << lane;
        if (!(regs_[r].busy & bit))
            return RegState::Ready;
        if (regs_[r].susp & bit)
            return RegState::Suspended;
        return (regs_[r].inflight & bit) ? RegState::InFlight
                                    : RegState::Pending;
    }

    void
    setRegState(unsigned r, unsigned lane, RegState s)
    {
        const LaneMask bit = LaneMask(1) << lane;
        regs_[r].busy = (regs_[r].busy & ~bit) |
                   (LaneMask(s != RegState::Ready) << lane);
        regs_[r].susp = (regs_[r].susp & ~bit) |
                   (LaneMask(s == RegState::Suspended) << lane);
        regs_[r].inflight = (regs_[r].inflight & ~bit) |
                       (LaneMask(s == RegState::InFlight) << lane);
    }

    /** Lanes of register r in Pending/InFlight/Suspended state. */
    LaneMask busyMask(unsigned r) const { return regs_[r].busy; }
    /** Lanes of register r in the (2)-Suspended state. */
    LaneMask suspendedMask(unsigned r) const { return regs_[r].susp; }
    /** Lanes of register r with a request in the memory system. */
    LaneMask inFlightMask(unsigned r) const { return regs_[r].inflight; }
    /** Lanes of register r recorded but neither issued nor suspended. */
    LaneMask
    pendingMask(unsigned r) const
    {
        return regs_[r].busy & ~regs_[r].susp & ~regs_[r].inflight;
    }

    /** Lanes of register r whose word is zero (zero-probe bitmap). */
    LaneMask zeroMask(unsigned r) const { return regs_[r].zero; }

    // Whole-register value row for the vectorized bulk paths. A caller
    // that writes it directly must restore the zero bitmap (resolveLanes,
    // refreshZeroMask or setZeroMask) before any reader runs.
    std::uint32_t *valueRow(unsigned r) { return values_[r].data(); }
    const std::uint32_t *valueRow(unsigned r) const
    {
        return values_[r].data();
    }

    /** Bulk record-time fill: every lane of r becomes Pending. */
    void
    markAllPending(unsigned r)
    {
        regs_[r].busy = allLanes;
        regs_[r].susp = 0;
        regs_[r].inflight = 0;
    }

    /** Bulk Pending -> Suspended for the lanes in m. */
    void suspendLanes(unsigned r, LaneMask m) { regs_[r].susp |= m; }

    /** Bulk Suspended -> Pending (requalification) for the lanes in m. */
    void requalifyLanes(unsigned r, LaneMask m) { regs_[r].susp &= ~m; }

    /** Bulk issue: the busy lanes of m (Pending or Suspended) become
     *  InFlight. */
    void
    markInFlight(unsigned r, LaneMask m)
    {
        m &= regs_[r].busy;
        regs_[r].susp &= ~m;
        regs_[r].inflight |= m;
    }

    /**
     * Bulk resolve bookkeeping: the caller has already written the
     * values of the lanes in m (now Ready); zero_bits carries their new
     * zero-bitmap bits (subset of m).
     */
    void
    resolveLanes(unsigned r, LaneMask m, LaneMask zero_bits)
    {
        regs_[r].busy &= ~m;
        regs_[r].susp &= ~m;
        regs_[r].inflight &= ~m;
        regs_[r].zero = (regs_[r].zero & ~m) | zero_bits;
    }

    /** Re-derive the zero bitmap after a bulk valueRow write. */
    void
    refreshZeroMask(unsigned r)
    {
        regs_[r].zero = isa::zeroLanes(values_[r].data());
    }

    /** Install a zero bitmap the bulk writer computed alongside. */
    void setZeroMask(unsigned r, LaneMask m) { regs_[r].zero = m; }

    /** True if any lane of register r is Pending/InFlight/Suspended. */
    bool anyNotReady(unsigned r) const { return regs_[r].busy != 0; }

    /** True if any lane of register r is InFlight. */
    bool anyInFlight(unsigned r) const { return regs_[r].inflight != 0; }

    // --- Pending (lazy) loads -------------------------------------------
    //
    // Live loads sit in a slot store whose slots are recycled as loads
    // finish, so it grows only to the wavefront's peak number of live
    // loads. The PendingLoad objects themselves come from, and return
    // to, the executor's pool (LazyUnit), so recording allocates nothing
    // in steady state.

    /** True iff some pending load owns register r (cheap precheck). */
    bool
    hasPendingOwner(unsigned r) const
    {
        return r < regs_.size() && regs_[r].owner != nullptr;
    }

    /** The pending load owning register r, or nullptr. */
    PendingLoad *
    pendingFor(unsigned r)
    {
        return r < regs_.size() ? regs_[r].owner : nullptr;
    }

    const PendingLoad *
    pendingFor(unsigned r) const
    {
        return r < regs_.size() ? regs_[r].owner : nullptr;
    }

    /**
     * The live load with this id in this slot, or nullptr once it was
     * removed (a response names its load by both: the slot may have been
     * recycled for a newer load in the meantime).
     */
    PendingLoad *
    pendingAt(unsigned slot, unsigned id)
    {
        PendingLoad *pl = slots_[slot];
        return pl && pl->id == id ? pl : nullptr;
    }

    /**
     * Install pl, a fresh or recycled load the executor owns, in a free
     * slot with a unique id and every other field reset (its transaction
     * vector keeps its capacity, emptied); the caller fills it, then
     * claims register ownership with claimOwners.
     */
    PendingLoad &emplacePending(PendingLoad &pl);

    /** Point pl's destination registers at it. */
    void claimOwners(PendingLoad &pl);

    /** Remove a fully resolved pending load (the executor reuses it). */
    void removePending(PendingLoad &pl);

    /** Number of live pending loads. */
    unsigned pendingCount() const { return live_pendings_; }

    /** Visit every live pending load (slot order, not id order). */
    template <typename F>
    void
    forEachPending(F &&f) const
    {
        for (const PendingLoad *pl : slots_) {
            if (pl)
                f(*pl);
        }
    }

    bool
    hasUnfinishedMemory() const
    {
        return live_pendings_ != 0 || outstanding_txs_ > 0;
    }

    /** Count of this wavefront's in-flight data transactions. */
    unsigned outstanding_txs_ = 0;
    /** Count of this wavefront's in-flight zero-mask transactions. */
    unsigned outstanding_masks_ = 0;

    bool
    drained() const
    {
        return outstanding_txs_ == 0 && outstanding_masks_ == 0;
    }

  private:
    const Kernel *kernel_;
    unsigned wid_;
    /** One vreg's scoreboard bitmaps and owner, side by side. */
    struct RegBits
    {
        LaneMask busy = 0;     //!< non-Ready lanes
        LaneMask susp = 0;     //!< Suspended lanes
        LaneMask inflight = 0; //!< InFlight lanes
        LaneMask zero = allLanes; //!< zero-valued lanes
        PendingLoad *owner = nullptr; //!< the pending load owning it
    };

    std::vector<std::array<std::uint32_t, wavefrontSize>> values_;
    std::vector<RegBits> regs_;
    /** Pending-load slots, null when free (the executor owns the
     *  loads). */
    std::vector<PendingLoad *> slots_;
    unsigned live_pendings_ = 0;
    unsigned next_pending_id_ = 0;
};

} // namespace lazygpu

#endif // LAZYGPU_GPU_WAVEFRONT_HH
