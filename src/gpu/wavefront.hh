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
        zero_[r] = (zero_[r] & ~bit) | (LaneMask(v == 0) << lane);
    }

    RegState
    regState(unsigned r, unsigned lane) const
    {
        const LaneMask bit = LaneMask(1) << lane;
        if (!(busy_[r] & bit))
            return RegState::Ready;
        if (susp_[r] & bit)
            return RegState::Suspended;
        return (inflight_[r] & bit) ? RegState::InFlight
                                    : RegState::Pending;
    }

    void
    setRegState(unsigned r, unsigned lane, RegState s)
    {
        const LaneMask bit = LaneMask(1) << lane;
        busy_[r] = (busy_[r] & ~bit) |
                   (LaneMask(s != RegState::Ready) << lane);
        susp_[r] = (susp_[r] & ~bit) |
                   (LaneMask(s == RegState::Suspended) << lane);
        inflight_[r] = (inflight_[r] & ~bit) |
                       (LaneMask(s == RegState::InFlight) << lane);
    }

    /** Lanes of register r in Pending/InFlight/Suspended state. */
    LaneMask busyMask(unsigned r) const { return busy_[r]; }
    /** Lanes of register r in the (2)-Suspended state. */
    LaneMask suspendedMask(unsigned r) const { return susp_[r]; }
    /** Lanes of register r with a request in the memory system. */
    LaneMask inFlightMask(unsigned r) const { return inflight_[r]; }
    /** Lanes of register r recorded but neither issued nor suspended. */
    LaneMask
    pendingMask(unsigned r) const
    {
        return busy_[r] & ~susp_[r] & ~inflight_[r];
    }

    /** Lanes of register r whose word is zero (zero-probe bitmap). */
    LaneMask zeroMask(unsigned r) const { return zero_[r]; }

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
        busy_[r] = allLanes;
        susp_[r] = 0;
        inflight_[r] = 0;
    }

    /** Bulk Pending -> Suspended for the lanes in m. */
    void suspendLanes(unsigned r, LaneMask m) { susp_[r] |= m; }

    /** Bulk Suspended -> Pending (requalification) for the lanes in m. */
    void requalifyLanes(unsigned r, LaneMask m) { susp_[r] &= ~m; }

    /** Bulk issue: the busy lanes of m (Pending or Suspended) become
     *  InFlight. */
    void
    markInFlight(unsigned r, LaneMask m)
    {
        m &= busy_[r];
        susp_[r] &= ~m;
        inflight_[r] |= m;
    }

    /**
     * Bulk resolve bookkeeping: the caller has already written the
     * values of the lanes in m (now Ready); zero_bits carries their new
     * zero-bitmap bits (subset of m).
     */
    void
    resolveLanes(unsigned r, LaneMask m, LaneMask zero_bits)
    {
        busy_[r] &= ~m;
        susp_[r] &= ~m;
        inflight_[r] &= ~m;
        zero_[r] = (zero_[r] & ~m) | zero_bits;
    }

    /** Re-derive the zero bitmap after a bulk valueRow write. */
    void
    refreshZeroMask(unsigned r)
    {
        zero_[r] = isa::zeroLanes(values_[r].data());
    }

    /** Install a zero bitmap the bulk writer computed alongside. */
    void setZeroMask(unsigned r, LaneMask m) { zero_[r] = m; }

    /** True if any lane of register r is Pending/InFlight/Suspended. */
    bool anyNotReady(unsigned r) const { return busy_[r] != 0; }

    /** True if any lane of register r is InFlight. */
    bool anyInFlight(unsigned r) const { return inflight_[r] != 0; }

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
        return r < owner_.size() && owner_[r] != nullptr;
    }

    /** The pending load owning register r, or nullptr. */
    PendingLoad *
    pendingFor(unsigned r)
    {
        return r < owner_.size() ? owner_[r] : nullptr;
    }

    const PendingLoad *
    pendingFor(unsigned r) const
    {
        return r < owner_.size() ? owner_[r] : nullptr;
    }

    /**
     * The live load with this id in this slot, or nullptr once it was
     * removed (a response names its load by both: the slot may have been
     * recycled for a newer load in the meantime).
     */
    PendingLoad *
    pendingAt(unsigned slot, unsigned id)
    {
        PendingLoad *pl = slots_[slot].get();
        return pl && pl->id == id ? pl : nullptr;
    }

    /**
     * Install pl, a fresh or recycled load, in a free slot with a unique
     * id and every other field reset (its transaction vector keeps its
     * capacity, emptied); the caller fills it, then claims register
     * ownership with claimOwners.
     */
    PendingLoad &emplacePending(std::unique_ptr<PendingLoad> pl);

    /** Point pl's destination registers at it. */
    void claimOwners(PendingLoad &pl);

    /** Remove a fully resolved pending load, handing it back for reuse. */
    std::unique_ptr<PendingLoad> removePending(PendingLoad &pl);

    /** Number of live pending loads. */
    unsigned pendingCount() const { return live_pendings_; }

    /** Visit every live pending load (slot order, not id order). */
    template <typename F>
    void
    forEachPending(F &&f) const
    {
        for (const auto &pl : slots_) {
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
    std::vector<std::array<std::uint32_t, wavefrontSize>> values_;
    std::vector<LaneMask> busy_;     //!< non-Ready lanes per vreg
    std::vector<LaneMask> susp_;     //!< Suspended lanes per vreg
    std::vector<LaneMask> inflight_; //!< InFlight lanes per vreg
    std::vector<LaneMask> zero_;     //!< zero-valued lanes per vreg
    /** Pending-load slots, null when free. */
    std::vector<std::unique_ptr<PendingLoad>> slots_;
    unsigned live_pendings_ = 0;
    unsigned next_pending_id_ = 0;
    /** reg -> the pending load that owns it, or nullptr. */
    std::vector<PendingLoad *> owner_;
};

} // namespace lazygpu

#endif // LAZYGPU_GPU_WAVEFRONT_HH
