#include "gpu/lazy_unit.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "inject/fault.hh"
#include "isa/encoding.hh"
#include "isa/eval.hh"
#include "isa/simd.hh"
#include "sim/logging.hh"

#ifdef LAZYGPU_CHECK
#include "verif/invariants.hh"
#endif

namespace lazygpu
{

namespace
{

std::uint32_t
readSrc(const Wavefront &wave, const Src &s, unsigned lane)
{
    switch (s.kind) {
      case SrcKind::VReg:
        return wave.vreg(s.value, lane);
      case SrcKind::SReg:
        return wave.sregs[s.value];
      case SrcKind::Imm:
        return s.value;
      case SrcKind::None:
        return 0;
    }
    return 0;
}

/** One VALU operand as a register plane (suspended lanes read zero). */
PlaneSrc
planeSrc(Wavefront &wave, const Src &s)
{
    PlaneSrc p;
    switch (s.kind) {
      case SrcKind::VReg:
        p.row = wave.valueRow(s.value);
        p.zeroed = wave.suspendedMask(s.value);
        break;
      case SrcKind::SReg:
        p.imm = wave.sregs[s.value];
        break;
      case SrcKind::Imm:
        p.imm = s.value;
        break;
      case SrcKind::None:
        break;
    }
    return p;
}

} // namespace

LazyUnit::LazyUnit(const GpuConfig &cfg, GlobalMemory &mem,
                   StatsRegistry &stats, const std::string &prefix,
                   Port &port, const Engine *clock,
                   LifecycleTracker *lifecycle)
    : cfg_(cfg), mem_(mem), port_(port), clock_(clock),
      lifecycle_(lifecycle), mode_(cfg.mode),
      zc_(cfg.l1Zero.size > 0 && cfg.l2Zero.size > 0),
      valu_insts_(stats.counter(prefix + "valu_insts")),
      salu_insts_(stats.counter(prefix + "salu_insts")),
      load_insts_(stats.counter(prefix + "load_insts")),
      store_insts_(stats.counter(prefix + "store_insts")),
      txs_issued_(stats.counter(prefix + "txs_issued")),
      txs_completed_(stats.counter(prefix + "txs_completed")),
      txs_elim_zero_(stats.counter(prefix + "txs_elim_zero")),
      txs_elim_otimes_(stats.counter(prefix + "txs_elim_otimes")),
      txs_elim_dead_(stats.counter(prefix + "txs_elim_dead")),
      txs_eager_fallback_(stats.counter(prefix + "txs_eager_fallback")),
      store_txs_(stats.counter(prefix + "store_txs")),
      store_txs_zero_skipped_(
          stats.counter(prefix + "store_txs_zero_skipped")),
      mask_reads_(stats.counter(prefix + "mask_reads")),
      mask_writes_(stats.counter(prefix + "mask_writes")),
      zc_short_circuits_(stats.counter(prefix + "zc_short_circuits")),
      lanes_zeroed_(stats.counter(prefix + "lanes_zeroed")),
      lanes_suspended_(stats.counter(prefix + "lanes_suspended"))
{
}

LazyUnit::Step
LazyUnit::execute(Wavefront &wave, const Instruction &inst)
{
    if (isScalar(inst.op))
        return execScalar(wave, inst);
    if (isLoad(inst.op))
        return execLoad(wave, inst);
    if (isStore(inst.op))
        return execStore(wave, inst);
    return execValu(wave, inst);
}

LazyUnit::Step
LazyUnit::execScalar(Wavefront &wave, const Instruction &inst)
{
    ++salu_insts_;
    const std::uint32_t a = readSrc(wave, inst.src0, 0);
    const std::uint32_t b = readSrc(wave, inst.src1, 0);

    switch (inst.op) {
      case Opcode::SMov:
        wave.sregs[inst.dst] = a;
        break;
      case Opcode::SAddU32:
        wave.sregs[inst.dst] = a + b;
        break;
      case Opcode::SMulU32:
        wave.sregs[inst.dst] = a * b;
        break;
      case Opcode::SCmpLtU32:
        wave.scc = a < b;
        break;
      case Opcode::SCBranch1:
        wave.pc = wave.scc ? static_cast<unsigned>(inst.target)
                           : wave.pc + 1;
        return Step::Done;
      case Opcode::SCBranch0:
        wave.pc = !wave.scc ? static_cast<unsigned>(inst.target)
                            : wave.pc + 1;
        return Step::Done;
      case Opcode::SBranch:
        wave.pc = static_cast<unsigned>(inst.target);
        return Step::Done;
      case Opcode::SEndpgm:
        retire(wave);
        return Step::Endpgm;
      default:
        panic("unhandled scalar opcode %s", opcodeName(inst.op).c_str());
    }
    ++wave.pc;
    return Step::Done;
}

LazyUnit::Step
LazyUnit::execValu(Wavefront &wave, const Instruction &inst)
{
    const bool reads_dst = inst.op == Opcode::VMacF32;
    // makeReady is a no-op when no operand lane is busy; skip even
    // building the operand list in that (overwhelmingly common) case.
    const bool s0_busy = inst.src0.kind == SrcKind::VReg &&
                         wave.anyNotReady(inst.src0.value);
    const bool s1_busy = inst.src1.kind == SrcKind::VReg &&
                         wave.anyNotReady(inst.src1.value);
    if (s0_busy || s1_busy ||
        (reads_dst && wave.anyNotReady(inst.dst))) {
        std::vector<unsigned> &srcs = scratch_srcs_;
        srcs.clear();
        if (inst.src0.kind == SrcKind::VReg)
            srcs.push_back(inst.src0.value);
        if (inst.src1.kind == SrcKind::VReg)
            srcs.push_back(inst.src1.value);
        if (reads_dst)
            srcs.push_back(inst.dst);
        if (!makeReady(wave, inst, srcs))
            return Step::Wait;
    }
    if (!reads_dst && !prepareOverwrite(wave, inst.dst, 1))
        return Step::Wait;

    ++valu_insts_;

    // Every operand lane is now Ready or (correctly) Suspended, and a
    // suspended lane reads as zero: by construction its value cannot
    // affect the result (its counterpart operand is zero).
    if (!isa::scalarRefEnabled()) {
        // Vectorized plane path: one opcode dispatch per instruction,
        // lanes as one dense loop over the contiguous register planes.
        // Suspended lanes ride along as PlaneSrc::zeroed (VMacF32's
        // accumulator -- the destination plane -- stays raw).
        const PlaneSrc a = planeSrc(wave, inst.src0);
        const PlaneSrc b = planeSrc(wave, inst.src1);
        std::uint32_t *dst = wave.valueRow(inst.dst);
        panic_if(!isa::evalValuPlane(inst.op, dst, a, b, wave.wid()),
                 "unhandled VALU opcode %s", opcodeName(inst.op).c_str());
        // The suspension rule reads the zero bitmap: restore it.
        wave.setZeroMask(inst.dst, isa::zeroLanes(dst));
        ++wave.pc;
        return Step::Done;
    }

    // Scalar oracle path (LAZYGPU_SCALAR_REF): one lane at a time
    // through isa::evalValu, the single source of per-lane semantics.
    auto read = [&](const Src &s, unsigned lane) -> std::uint32_t {
        if (s.kind == SrcKind::VReg &&
            ((wave.suspendedMask(s.value) >> lane) & 1)) {
            return 0;
        }
        return readSrc(wave, s, lane);
    };
    for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
        bool known = true;
        const std::uint32_t out = isa::evalValu(
            inst.op, read(inst.src0, lane), read(inst.src1, lane),
            wave.vreg(inst.dst, lane), wave.wid(), lane, known);
        panic_if(!known, "unhandled VALU opcode %s",
                 opcodeName(inst.op).c_str());
        wave.setVreg(inst.dst, lane, out);
    }
    ++wave.pc;
    return Step::Done;
}

LazyUnit::Step
LazyUnit::execLoad(Wavefront &wave, const Instruction &inst)
{
    // The address register is a source; reading it may trigger lazy
    // issue of an earlier load.
    if (wave.anyNotReady(inst.src0.value)) {
        std::vector<unsigned> &srcs = scratch_srcs_;
        srcs.clear();
        srcs.push_back(inst.src0.value);
        if (!makeReady(wave, inst, srcs))
            return Step::Wait;
    }
    if (!prepareOverwrite(wave, inst.dst, loadDstRegs(inst.op)))
        return Step::Wait;

    ++load_insts_;

    std::array<Addr, wavefrontSize> &lane_addr = scratch_lane_addr_;
    const std::uint32_t *addr_row = wave.valueRow(inst.src0.value);
    for (unsigned lane = 0; lane < wavefrontSize; ++lane)
        lane_addr[lane] = inst.base + addr_row[lane];

    record(wave, inst, lane_addr);
    ++wave.pc;
    return Step::Done;
}

LazyUnit::Step
LazyUnit::execStore(Wavefront &wave, const Instruction &inst)
{
    const unsigned nregs = storeBytes(inst.op) / 4;
    std::vector<unsigned> &srcs = scratch_srcs_;
    srcs.clear();
    srcs.push_back(inst.src0.value);
    for (unsigned r = 0; r < nregs; ++r)
        srcs.push_back(inst.src2.value + r);
    if (!makeReady(wave, inst, srcs))
        return Step::Wait;

    ++store_insts_;

    // Functional write, immediately (the port times the transactions).
    std::array<Addr, wavefrontSize> &lane_addr = scratch_lane_addr_;
    for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
        lane_addr[lane] = inst.base + wave.vreg(inst.src0.value, lane);
        for (unsigned r = 0; r < nregs; ++r) {
            mem_.writeU32(lane_addr[lane] + 4ull * r,
                          wave.vreg(inst.src2.value + r, lane));
        }
    }

    std::vector<Addr> &txs = scratch_txs_;
    coalescer_.coalesce(lane_addr.data(), lane_addr.size(),
                        storeBytes(inst.op), txs);
#ifdef LAZYGPU_CHECK
    for (Addr ta : txs)
        verif::checkMaskCoherence(mem_, ta);
#endif
    if (zc_) {
        // Fig 7 write path: the zero masks are always updated to keep
        // the Zero Caches coherent with the data. Mask bytes of all the
        // store's transactions coalesce into aligned mask transactions.
        std::vector<Addr> &mask_bytes = scratch_mask_bytes_;
        mask_bytes.clear();
        for (Addr ta : txs)
            mask_bytes.push_back(GlobalMemory::maskAddr(ta));
        coalescer_.coalesce(mask_bytes.data(), mask_bytes.size(), 1,
                            scratch_mask_txs_);
        for (Addr ma : scratch_mask_txs_) {
            ++mask_writes_;
            port_.writeMask(ma);
        }
    }
    for (Addr ta : txs) {
        // All-zero block: only the Zero Cache is written (Sec 4.2).
        const bool skipped = zc_ && hasZeroElimination(mode_) &&
                             mem_.zeroMaskByte(ta) == 0xff;
        if (skipped)
            ++store_txs_zero_skipped_;
        else
            ++store_txs_;
        port_.writeData(ta, skipped);
    }
    ++wave.pc;
    return Step::Done;
}

void
LazyUnit::retire(Wavefront &wave)
{
    // Observer first: it must see which lanes were architecturally live
    // before retirement eliminates parked loads.
    if (retire_obs_)
        retire_obs_(wave);
    // Permanently eliminate every still-parked request: the wavefront
    // is complete, so their values can never be observed (Sec 4.3).
    // Elimination counts are order-independent; walking the loads in id
    // (record) order keeps the lifecycle samples independent of which
    // slots the store happened to recycle.
    std::vector<std::pair<unsigned, unsigned>> &live = scratch_retire_;
    live.clear();
    wave.forEachPending([&](const PendingLoad &pl) {
        live.emplace_back(pl.id, pl.slot);
    });
    std::sort(live.begin(), live.end());
    for (const auto &[id, slot] : live) {
        if (PendingLoad *pl = wave.pendingAt(slot, id))
            eliminateForRegs(wave, pl->firstDst, pl->numRegs);
    }
}

// --- Scoreboard ---------------------------------------------------------

LaneMask
LazyUnit::counterpartZero(const Wavefront &wave, const Instruction &inst,
                          unsigned reg) const
{
    // The result of an otimes instruction is unaffected by src0's value
    // in lanes where src1 is zero, and vice versa. A counterpart lane
    // counts only when Ready: an unknown value cannot justify skipping.
    if (!isOtimes(inst.op) || !hasOtimesElimination(mode_))
        return 0;
    const Src *other = nullptr;
    if (inst.src0.kind == SrcKind::VReg && inst.src0.value == reg)
        other = &inst.src1;
    else if (inst.src1.kind == SrcKind::VReg && inst.src1.value == reg)
        other = &inst.src0;
    if (!other || other->kind == SrcKind::None)
        return 0;
    if (other->kind == SrcKind::VReg)
        return wave.zeroMask(other->value) & ~wave.busyMask(other->value);
    return readSrc(wave, *other, 0) == 0 ? allLanes : 0;
}

void
LazyUnit::trySuspend(Wavefront &wave, PendingLoad &pl,
                     const Instruction &inst, unsigned reg)
{
    if (!wave.anyNotReady(reg))
        return;
    const LaneMask to_suspend =
        wave.pendingMask(reg) & counterpartZero(wave, inst, reg);
    if (!to_suspend)
        return;
    wave.suspendLanes(reg, to_suspend);
    const unsigned n = static_cast<unsigned>(std::popcount(to_suspend));
    lanes_suspended_ += n;
    if (lifecycle_) {
        const Tick age = now() - pl.recordTick;
        for (unsigned i = 0; i < n; ++i)
            lifecycle_->suspended(age);
    }
    const unsigned reg_off = reg - pl.firstDst;
    for (PendingLoad::Tx &tx : pl.txs) {
        if (tx.words[reg_off] & to_suspend)
            tx.hadSuspended = true;
    }
}

bool
LazyUnit::makeReady(Wavefront &wave, const Instruction &inst,
                    const std::vector<unsigned> &regs)
{
    bool any_busy = false;
    for (unsigned reg : regs) {
        if (!wave.anyNotReady(reg))
            continue;
        const LaneMask susp = wave.suspendedMask(reg);
        // Requalify: a suspended lane whose counterpart is no longer a
        // Ready zero for this consumer is needed after all. (With the
        // injected fault the requalification is skipped and stale lanes
        // wrongly read as zero.)
        if (susp && !cfg_.injectSkipSuspendRequalify) {
            const LaneMask requal = susp & ~counterpartZero(wave, inst, reg);
            if (requal) {
                wave.requalifyLanes(reg, requal);
                any_busy = true;
            }
        }
        if (wave.busyMask(reg) & ~wave.suspendedMask(reg))
            any_busy = true;
    }
    if (!any_busy)
        return true;

    // The stall point: bundle-issue everything the next instructions
    // will touch (with optimization (2) filtering), then wait for
    // whatever is genuinely outstanding.
    windowIssue(wave);
    for (unsigned reg : regs) {
        if (wave.pendingMask(reg) != 0 || wave.inFlightMask(reg) != 0)
            return false;
    }
    return true;
}

bool
LazyUnit::prepareOverwrite(Wavefront &wave, unsigned first, unsigned nregs)
{
    // WAW: an in-flight fill may not race the overwrite.
    bool owned = false;
    for (unsigned r = first; r < first + nregs; ++r) {
        if (wave.anyInFlight(r))
            return false;
        owned |= wave.hasPendingOwner(r);
    }
    // Pending/Suspended words under the overwrite are dead: their values
    // can never be observed, so their requests are permanently
    // eliminated.
    if (owned)
        eliminateForRegs(wave, first, nregs);
    return true;
}

// --- Decode window ------------------------------------------------------

void
LazyUnit::buildWindowCands(const Kernel &kernel)
{
    // The scan order and its first-occurrence-per-register dedup depend
    // only on the kernel text, so the candidate list is computed once
    // per (kernel, pc) instead of being re-decoded on every stall.
    window_kernel_ = &kernel;
    const auto &code = kernel.code;
    const unsigned nvregs = kernel.numVregs;
    window_cands_.clear();
    window_start_.assign(1, 0);

    std::vector<std::uint32_t> stamp(nvregs, 0);
    std::uint32_t epoch = 0;
    for (unsigned start = 0; start < code.size(); ++start) {
        ++epoch;
        auto consider = [&](unsigned reg, const Instruction &inst,
                            bool otimes_src) {
            if (reg >= nvregs || stamp[reg] == epoch)
                return;
            stamp[reg] = epoch;
            window_cands_.push_back(WindowCand{&inst, reg, otimes_src});
        };
        unsigned pc = start;
        for (unsigned i = 0; i < lookAhead && pc < code.size();
             ++i, ++pc) {
            const Instruction &inst = code[pc];
            if (isBranch(inst.op) || inst.op == Opcode::SEndpgm)
                break;
            if (isScalar(inst.op))
                continue;
            const bool otimes = isOtimes(inst.op);
            if (inst.src0.kind == SrcKind::VReg)
                consider(inst.src0.value, inst, otimes);
            if (inst.src1.kind == SrcKind::VReg)
                consider(inst.src1.value, inst, otimes);
            if (inst.op == Opcode::VMacF32)
                consider(inst.dst, inst, false); // accumulator read
            if (isStore(inst.op)) {
                for (unsigned r = 0; r < storeBytes(inst.op) / 4; ++r)
                    consider(inst.src2.value + r, inst, false);
            }
        }
        window_start_.push_back(
            static_cast<unsigned>(window_cands_.size()));
    }
    window_cands_.shrink_to_fit();
}

void
LazyUnit::windowIssue(Wavefront &wave)
{
    if (wave.pendingCount() == 0)
        return;
    if (&wave.kernel() != window_kernel_)
        buildWindowCands(wave.kernel());

    // Every suspension decision is made against pre-issue scoreboard
    // state, and only then are the collected loads issued (responses
    // cannot influence the scan: on the timed path they arrive strictly
    // later).
    std::vector<std::pair<unsigned, unsigned>> &to_issue = scratch_issue_;
    to_issue.clear();
    for (unsigned i = window_start_[wave.pc];
         i < window_start_[wave.pc + 1]; ++i) {
        const WindowCand &c = window_cands_[i];
        PendingLoad *pl = wave.pendingFor(c.reg);
        if (!pl)
            continue;
        if (c.otimesSrc)
            trySuspend(wave, *pl, *c.inst, c.reg);
        const std::pair<unsigned, unsigned> ref(pl->slot, pl->id);
        if (wave.pendingMask(c.reg) != 0 &&
            std::find(to_issue.begin(), to_issue.end(), ref) ==
                to_issue.end()) {
            to_issue.push_back(ref);
        }
    }
    for (const auto &[slot, id] : to_issue) {
        if (PendingLoad *pl = wave.pendingAt(slot, id))
            port_.requestIssue(wave, *pl);
    }
}

// --- Record and issue ---------------------------------------------------

bool
loadFootprint(Opcode op, const std::array<Addr, wavefrontSize> &lane_addr,
              std::vector<PendingLoad::Tx> &txs)
{
    const unsigned nregs = loadDstRegs(op);
    // A lane's words are contiguous: its span is the load width (the
    // words of a byte/short load are narrower than a register).
    const Addr lane_span = loadBytes(op);
    const unsigned bytes_per_word =
        std::min<unsigned>(static_cast<unsigned>(lane_span),
                           maskGranularity);
    txs.clear();
    // Equal transactions of different lanes merge in first-touch order.
    // Consecutive lanes and groups almost always hit the same
    // transaction, so remember the last one and only fall back to the
    // linear search on an address change.
    PendingLoad::Tx *last = nullptr;
    const auto txAt = [&](Addr ta) -> PendingLoad::Tx & {
        if (last && last->addr == ta)
            return *last;
        auto it = std::find_if(txs.begin(), txs.end(),
                               [ta](const auto &tx) { return tx.addr == ta; });
        last = it != txs.end() ? &*it
                               : &txs.emplace_back(PendingLoad::Tx{ta});
        return *last;
    };
    // Give the words of `lanes`, which all start at lo, to their
    // transactions in register order; a span inside one transaction
    // takes one lookup.
    const auto addLanes = [&](Addr lo, LaneMask lanes) {
        if (txAlign(lo + lane_span - 1) == txAlign(lo)) {
            PendingLoad::Tx &tx = txAt(txAlign(lo));
            for (unsigned r = 0; r < nregs; ++r)
                tx.words[r] |= lanes;
            return;
        }
        for (unsigned r = 0; r < nregs; ++r) {
            const Addr wa = lo + 4ull * r;
            const Addr ta = txAlign(wa);
            panic_if(txAlign(wa + bytes_per_word - 1) != ta,
                     "load word straddles a transaction; kernels must "
                     "use naturally aligned accesses");
            txAt(ta).words[r] |= lanes;
        }
    };

    // Lanes go in groups of eight: im2col GEMM loads repeat with that
    // period, as whole-group broadcasts or unit-stride runs. A uniform
    // group costs one lane's work; an aligned unit-stride group one
    // lookup per transaction it covers. Anything else takes the
    // per-lane path. Either way transactions appear in lane-major,
    // then register, order of their first word.
    constexpr unsigned group = 8;
    const std::uint64_t shared_upper = upperBits(lane_addr[0]);
    bool mixed_upper = false;
    for (unsigned g = 0; g < wavefrontSize; g += group) {
        const Addr *a = &lane_addr[g];
        const Addr a0 = a[0];
        bool uniform = true, stride = true;
        for (unsigned i = 1; i < group; ++i) {
            uniform &= a[i] == a0;
            stride &= a[i] == a0 + i * lane_span;
        }
        if (uniform) {
            mixed_upper |= upperBits(a0) != shared_upper;
            addLanes(a0, LaneMask(0xff) << g);
        } else if (stride && a0 % lane_span == 0) {
            // Upper bits grow along the run (a wrapping run has lanes of
            // both extremes), so its ends decide encodability.
            mixed_upper |= upperBits(a0) != shared_upper ||
                           upperBits(a[group - 1]) != shared_upper;
            // Aligned lanes never straddle: each transaction takes a run
            // of whole lanes.
            for (unsigned i = 0; i < group;) {
                const Addr lo = a0 + i * lane_span;
                const Addr ta = txAlign(lo);
                const unsigned n = std::min<unsigned>(
                    group - i,
                    static_cast<unsigned>((ta + transactionSize - lo) /
                                          lane_span));
                PendingLoad::Tx &tx = txAt(ta);
                const LaneMask run = ((LaneMask(1) << n) - 1) << (g + i);
                for (unsigned r = 0; r < nregs; ++r)
                    tx.words[r] |= run;
                i += n;
            }
        } else {
            for (unsigned i = 0; i < group; ++i) {
                mixed_upper |= upperBits(a[i]) != shared_upper;
                addLanes(a[i], LaneMask(1) << (g + i));
            }
        }
    }
    for (PendingLoad::Tx &tx : txs)
        tx.unresolved = tx.wordCount();
    return mixed_upper;
}


void
LazyUnit::record(Wavefront &wave, const Instruction &inst,
                 const std::array<Addr, wavefrontSize> &lane_addr)
{
    const unsigned nregs = loadDstRegs(inst.op);
    panic_if(nregs > std::tuple_size_v<RegMasks>,
             "%s writes %u registers; the Lazy Unit tracks at most %zu",
             opcodeName(inst.op).c_str(), nregs,
             std::tuple_size_v<RegMasks>);

    if (load_pool_.empty()) {
        load_chunks_.push_back(std::make_unique<PendingLoad[]>(loadChunk));
        for (unsigned i = loadChunk; i-- > 0;)
            load_pool_.push_back(&load_chunks_.back()[i]);
    }
    PendingLoad &pl = wave.emplacePending(*load_pool_.back());
    load_pool_.pop_back();
    pl.op = inst.op;
    pl.firstDst = inst.dst;
    pl.numRegs = nregs;
    pl.laneAddr = lane_addr;
    pl.recordTick = now();

    // Encodability (Sec 4.1): lanes whose upper 35 address bits differ
    // from lane 0's cannot be parked in the register metadata and are
    // issued without lazy execution (below).
    const bool any_fallback =
        loadFootprint(inst.op, lane_addr, scratch_footprint_);
    // A pooled record's vector grows at most once per load, to the exact
    // size, instead of step by step while the footprint is built.
    pl.txs.assign(scratch_footprint_.begin(), scratch_footprint_.end());
    pl.wordsLeft = nregs * wavefrontSize;

    // prepareOverwrite just resolved every destination lane (and stalls
    // on InFlight ones), so each row flips from all-Ready to all-Pending
    // wholesale.
    for (unsigned r = 0; r < nregs; ++r) {
        panic_if(wave.anyNotReady(inst.dst + r),
                 "recording a load over a busy destination register");
        wave.markAllPending(inst.dst + r);
    }

    wave.claimOwners(pl);

    const bool eager_issue = !isLazy(mode_);
    if (any_fallback && !eager_issue) {
        // Mixed upper bits: per the paper these requests are promptly
        // issued; we fall back to eager issue for the whole instruction
        // (no zero masks).
        txs_eager_fallback_ += pl.txs.size();
        issue(wave, pl);
        return;
    }

    // Lazy modes with optimization (1) probe the zero masks at record;
    // EagerZC probes them concurrently with its eager issue. One mask
    // transaction covers 1 KiB of data, so a load's footprint usually
    // needs one or two.
    if (zc_ && (hasZeroElimination(mode_) || mode_ == ExecMode::EagerZC)) {
        pl.maskRequested = true;
        std::vector<Addr> &mask_words = scratch_mask_bytes_;
        mask_words.clear();
        for (const auto &tx : pl.txs)
            mask_words.push_back(GlobalMemory::maskAddr(tx.addr));
        coalescer_.coalesce(mask_words.data(), mask_words.size(), 1,
                            scratch_mask_txs_);
        mask_reads_ += scratch_mask_txs_.size();
        port_.probeMasks(wave, pl, scratch_mask_txs_); // may remove pl
    }

    if (eager_issue)
        issue(wave, pl); // probeMasks never resolves in eager modes
}

void
LazyUnit::issue(Wavefront &wave, PendingLoad &pl)
{
    pl.dataIssued = true;
    const unsigned first_dst = pl.firstDst;
    // Only EagerZC's residency short-circuit reads all_zero; the
    // zero probes are pure overhead for the other modes.
    const bool probe_zero = mode_ == ExecMode::EagerZC;
    // Issuing a transaction changes only its own words' bits, so masks
    // taken once stay exact for every other transaction of the load.
    RegMasks pending{}, busy{};
    for (unsigned r = 0; r < pl.numRegs; ++r) {
        pending[r] = wave.pendingMask(first_dst + r);
        busy[r] = wave.busyMask(first_dst + r);
    }

    for (auto &tx : pl.txs) {
        if (tx.outcome != TxOutcome::Unissued)
            continue;
        bool has_pending = false;
        for (unsigned r = 0; r < pl.numRegs; ++r)
            has_pending |= (tx.words[r] & pending[r]) != 0;
        if (!has_pending)
            continue; // entirely suspended/resolved: stays parked

        // EagerZC (Fig 9 comparison): the L1 Zero Cache is probed in
        // parallel with the data path; if the mask is on hand and every
        // needed word -- each busy (Pending or Suspended) word, the
        // words its data would fill -- is zero, the L2 access is
        // short-circuited. The request has already consumed the issue
        // slot and LSU.
        tx.outcome = TxOutcome::Issued;
        if (probe_zero) {
            const std::uint8_t zmb = mem_.zeroMaskByte(tx.addr);
            bool all_zero = true;
            for (unsigned r = 0; r < pl.numRegs; ++r) {
                const LaneMask need = tx.words[r] & busy[r];
                all_zero &= zeroLanesOf(pl, tx, r, need, zmb) == need;
            }
            if (all_zero &&
                port_.maskResident(GlobalMemory::maskAddr(tx.addr))) {
                ++zc_short_circuits_;
                port_.shortCircuit(wave, pl, tx);
                continue;
            }
        }
        ++txs_issued_;
        port_.sendData(wave, pl, tx);
    }
    finishIfResolved(wave, pl);
}

// --- Responses ----------------------------------------------------------

void
LazyUnit::fill(Wavefront &wave, PendingLoad &pl, PendingLoad::Tx &tx)
{
    ++txs_completed_;
    // An issued transaction is never classified (the Fig 14 rule), so its
    // words resolve in place.
    if (inject_) {
        // One word at a time in word order: an armed injector picks the
        // word it corrupts by that order.
        tx.forEachWord([&](unsigned r, unsigned lane) {
            const unsigned reg = pl.firstDst + r;
            if (!((wave.busyMask(reg) >> lane) & 1))
                return;
            const std::uint32_t v = inject_->filterLoadWord(
                now(), isa::loadRegWord(mem_, pl.op, pl.laneAddr[lane], r));
            wave.setVreg(reg, lane, v);
            wave.setRegState(reg, lane, RegState::Ready);
            --tx.unresolved;
            --pl.wordsLeft;
        });
        return;
    }
    // Hot path of both executors: write the register rows directly and
    // fold the scoreboard and zero bits per register. All word starts of
    // one transaction share a page, so for dword loads the page pointer
    // is hoisted; a word whose tail crosses the page edge takes the
    // straddle path.
    const bool dword = pl.op != Opcode::LoadByte && pl.op != Opcode::LoadShort;
    const std::uint8_t *page = mem_.pageForSpan(tx.addr);
    const auto readWord = [&](unsigned r, unsigned lane) {
        if (!dword)
            return isa::loadRegWord(mem_, pl.op, pl.laneAddr[lane], r);
        const Addr a = pl.wordAddr(r, lane);
        const Addr off = a & (GlobalMemory::pageSize - 1);
        std::uint32_t v = 0;
        if (off + 4 > GlobalMemory::pageSize)
            v = mem_.readU32(a);
        else if (page)
            std::memcpy(&v, page + off, sizeof(v));
        return v;
    };
    unsigned resolved = 0;
    for (unsigned r = 0; r < pl.numRegs; ++r) {
        const unsigned reg = pl.firstDst + r;
        const LaneMask done = tx.words[r] & wave.busyMask(reg);
        std::uint32_t *row = wave.valueRow(reg);
        LaneMask zero_bits = 0;
        for (LaneMask t = done; t; t &= t - 1) {
            const unsigned lane = std::countr_zero(t);
            const std::uint32_t v = readWord(r, lane);
            row[lane] = v;
            zero_bits |= LaneMask(v == 0) << lane;
        }
        wave.resolveLanes(reg, done, zero_bits);
        resolved += std::popcount(done);
    }
    tx.unresolved -= resolved;
    pl.wordsLeft -= resolved;
}

void
LazyUnit::zeroFill(Wavefront &wave, PendingLoad &pl, PendingLoad::Tx &tx)
{
    for (unsigned r = 0; r < pl.numRegs; ++r)
        resolveZero(wave, pl, tx, r, tx.words[r]);
}

LaneMask
LazyUnit::zeroLanesOf(const PendingLoad &pl, const PendingLoad::Tx &tx,
                      unsigned reg_off, LaneMask cand, std::uint8_t zmb)
{
    if (zmb == 0xff)
        return cand;
    // Bit i of zmb covers the tx's i-th maskGranularity-byte word.
    LaneMask zero = 0;
    for (LaneMask t = zmb ? cand : 0; t; t &= t - 1) {
        const unsigned lane = std::countr_zero(t);
        const Addr off = pl.wordAddr(reg_off, lane) - tx.addr;
        zero |= LaneMask((zmb >> (off / maskGranularity)) & 1) << lane;
    }
    return zero;
}

void
LazyUnit::applyZeroMask(Wavefront &wave, PendingLoad &pl, Addr lo, Addr hi)
{
    // Resolving a word changes only its own bits, and each word is
    // visited once, so the masks taken here stay exact.
    RegMasks pending{};
    for (unsigned r = 0; r < pl.numRegs; ++r)
        pending[r] = wave.pendingMask(pl.firstDst + r);
    for (auto &tx : pl.txs) {
        if (tx.outcome != TxOutcome::Unissued || tx.addr < lo ||
            tx.addr >= hi) {
            continue;
        }
        if (inject_) {
            // Word by word in word order: the injector flips the probe
            // of the n-th word it sees.
            tx.forEachWord([&](unsigned r, unsigned lane) {
                if (!((pending[r] >> lane) & 1))
                    return;
                bool zero = mem_.isZeroWord(pl.wordAddr(r, lane));
                zero ^= inject_->flipZeroProbe(now());
                if (zero) {
                    ++lanes_zeroed_;
                    ++tx.zeroedWords;
                    resolveZero(wave, pl, tx, r, LaneMask(1) << lane);
                }
            });
            continue;
        }
        // Optimization (1): one mask byte covers the whole transaction;
        // its zero words are materialised without memory traffic (busy
        // bits cleared, registers initialised to 0), one register at a
        // time. The transaction is classified once, after the last.
        const std::uint8_t zmb = mem_.zeroMaskByte(tx.addr);
        if (zmb == 0)
            continue;
        RegMasks zero{};
        unsigned nzero = 0;
        for (unsigned r = 0; r < pl.numRegs; ++r) {
            zero[r] = zeroLanesOf(pl, tx, r, tx.words[r] & pending[r], zmb);
            nzero += std::popcount(zero[r]);
        }
        if (nzero == 0)
            continue;
        lanes_zeroed_ += nzero;
        tx.zeroedWords += nzero;
        for (unsigned r = 0; r < pl.numRegs; ++r) {
            if (zero[r])
                resolveZero(wave, pl, tx, r, zero[r]);
        }
    }
    finishIfResolved(wave, pl);
}

void
LazyUnit::resolveZero(Wavefront &wave, PendingLoad &pl, PendingLoad::Tx &tx,
                      unsigned reg_off, LaneMask m)
{
    const unsigned reg = pl.firstDst + reg_off;
    m &= wave.busyMask(reg);
    if (!m)
        return;
    std::uint32_t *row = wave.valueRow(reg);
    for (LaneMask t = m; t; t &= t - 1)
        row[std::countr_zero(t)] = 0;
    wave.resolveLanes(reg, m, m);

    const unsigned n = static_cast<unsigned>(std::popcount(m));
    panic_if(n > tx.unresolved, "transaction resolved twice");
    tx.unresolved -= n;
    pl.wordsLeft -= n;
    if (tx.unresolved != 0 || tx.outcome != TxOutcome::Unissued)
        return;
    // This transaction will never be issued; classify why (Fig 14).
    const Tick age = now() - pl.recordTick;
    if (tx.zeroedWords == tx.wordCount()) {
        tx.outcome = TxOutcome::EliminatedZero;
        ++txs_elim_zero_;
        if (lifecycle_)
            lifecycle_->eliminatedZero(age);
    } else if (tx.hadSuspended) {
        tx.outcome = TxOutcome::EliminatedOtimes;
        ++txs_elim_otimes_;
        if (lifecycle_)
            lifecycle_->eliminatedOtimes(age);
    } else {
        tx.outcome = TxOutcome::EliminatedDead;
        ++txs_elim_dead_;
        if (lifecycle_)
            lifecycle_->eliminatedDead(age);
    }
}

void
LazyUnit::finishIfResolved(Wavefront &wave, PendingLoad &pl)
{
    if (pl.wordsLeft != 0)
        return;
    // Keep the load (and its transaction vector's heap block) for the
    // next record; emplacePending resets every field.
    wave.removePending(pl);
    load_pool_.push_back(&pl);
}

void
LazyUnit::eliminateForRegs(Wavefront &wave, unsigned first, unsigned nregs)
{
    for (unsigned r = first; r < first + nregs; ++r) {
        PendingLoad *pl = wave.pendingFor(r);
        if (!pl)
            continue;
        const unsigned reg_off = r - pl->firstDst;
        // Walk the recorded transactions: partial overwrites only ever
        // drop words whose lane is already Ready, so the recorded words
        // still cover every busy lane of r.
        for (PendingLoad::Tx &tx : pl->txs) {
            const LaneMask parked =
                wave.busyMask(r) & ~wave.inFlightMask(r);
            resolveZero(wave, *pl, tx, reg_off, tx.words[reg_off] & parked);
        }
        if (pl->wordsLeft == 0) {
            // Fully resolved: the load is removed outright, so no stale
            // word can outlive it. This is the common case (a
            // single-register load overwritten whole).
            finishIfResolved(wave, *pl);
            continue;
        }
        // The load survives for its other registers (multi-register
        // loads overlap partially), and this register may be re-owned
        // by a newer writer the moment we return, while the old load's
        // mask/data responses are still in flight. Drop the dead words
        // from the transactions so no response can reinterpret
        // scoreboard state it no longer owns. In-flight words are kept:
        // prepareOverwrite stalls on them, so they only appear here via
        // retire-time elimination, where the data response still needs
        // them.
        const LaneMask busy = wave.busyMask(r);
        for (PendingLoad::Tx &tx : pl->txs)
            tx.words[reg_off] &= busy;
    }
}

} // namespace lazygpu
