#include "gpu/compute_unit.hh"

#include <algorithm>
#include <bit>

#include "inject/fault.hh"
#include "sim/logging.hh"

#ifdef LAZYGPU_CHECK
#include "verif/invariants.hh"
#endif

namespace lazygpu
{

namespace
{

/** This CU's component path, e.g. "gpu.sa1.cu3." for cu_id 7, sa 1. */
std::string
cuPrefix(const GpuConfig &cfg, unsigned cu_id, unsigned sa_id)
{
    return "gpu.sa" + std::to_string(sa_id) + ".cu" +
           std::to_string(cu_id % cfg.cusPerSa) + ".";
}

} // namespace

ComputeUnit::ComputeUnit(Engine &engine, StatsRegistry &stats,
                         LifecycleTracker &lifecycle,
                         Distribution &mem_latency, const GpuConfig &cfg,
                         GlobalMemory &mem, MemoryHierarchy &hier,
                         unsigned cu_id, unsigned sa_id, TraceSink *trace)
    : engine_(engine), stats_(stats), lifecycle_(lifecycle),
      trace_(trace), cfg_(cfg), hier_(hier), cu_id_(cu_id),
      sa_id_(sa_id), mode_(cfg.mode), simd_busy_(cfg.simdPerCu, 0),
      simd_waves_(cfg.simdPerCu), simd_ready_(cfg.simdPerCu, 0),
      simd_busy_cycles_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                      "simd_busy_cycles")),
      lazy_(cfg, mem, stats, cuPrefix(cfg, cu_id, sa_id), *this, &engine,
            &lifecycle),
      // One shared latency distribution per engine domain: keeping the
      // sample (summation) order identical across configurations pins
      // the golden avgMemLatency digits.
      mem_latency_(mem_latency)
{
    panic_if(hier.hasZeroCaches() !=
                 (cfg.l1Zero.size > 0 && cfg.l2Zero.size > 0),
             "cu.%u: the Lazy Unit and the hierarchy disagree on whether "
             "Zero Caches exist", cu_id);
}

void
ComputeUnit::addWavefront(std::unique_ptr<Wavefront> wave)
{
    panic_if(!hasFreeSlot(), "cu.%u: dispatch beyond occupancy limit",
             cu_id_);
    // Pin the wavefront to the least-loaded SIMD.
    unsigned best = 0;
    for (unsigned s = 1; s < cfg_.simdPerCu; ++s) {
        if (simd_waves_[s].size() < simd_waves_[best].size())
            best = s;
    }
    std::vector<Wavefront *> &list = simd_waves_[best];
    panic_if(list.size() >= 64, "cu.%u: more than 64 waves on one SIMD",
             cu_id_);
    wave->simdId = best;
    wave->simdPos = static_cast<unsigned>(list.size());
    wave->dispatchTick = engine_.now();
    list.push_back(wave.get());
    if (trace_) {
        wave->traceId = trace_->nextId();
        trace_->emit(TraceKind::WaveBegin, traceTrack(), 0,
                     engine_.now(), wave->traceId, wave->wid());
    }
    waves_.push_back(std::move(wave));
    // Fresh wavefronts arrive Ready; account for them in the quiescence
    // protocol (the engine no longer polls every component).
    simd_ready_[best] |= std::uint64_t(1) << waves_.back()->simdPos;
    noteReadyDelta(1);
}

bool
ComputeUnit::quiescent() const
{
    return ready_waves_ == 0;
}

namespace
{

const char *
waveStatusName(WaveStatus s)
{
    switch (s) {
    case WaveStatus::Ready: return "Ready";
    case WaveStatus::Waiting: return "Waiting";
    case WaveStatus::Done: return "Done";
    }
    return "?";
}

} // namespace

void
ComputeUnit::describeInto(std::vector<std::string> &out) const
{
    if (waves_.empty())
        return;
    out.push_back(detail::formatString(
        "cu %u: %u resident waves (max %u), %u ready", cu_id_,
        residentWaves(), max_waves_, ready_waves_));
    for (const auto &w : waves_) {
        unsigned busy_regs = 0;
        for (unsigned r = 0; r < w->kernel().numVregs; ++r)
            busy_regs += w->anyNotReady(r) ? 1 : 0;
        out.push_back(detail::formatString(
            "cu %u wave %u simd %u: pc %u status %s, %u pending "
            "loads, %u busy vregs, %u txs + %u masks outstanding",
            cu_id_, w->wid(), w->simdId, w->pc,
            waveStatusName(w->status), w->pendingCount(), busy_regs,
            w->outstanding_txs_, w->outstanding_masks_));
    }
}

void
ComputeUnit::setStatus(Wavefront &wave, WaveStatus s)
{
    const bool was_ready = wave.status == WaveStatus::Ready;
    const bool is_ready = s == WaveStatus::Ready;
    wave.status = s;
    if (was_ready != is_ready) {
        simd_ready_[wave.simdId] ^= std::uint64_t(1) << wave.simdPos;
        noteReadyDelta(is_ready ? 1 : -1);
    }
}

void
ComputeUnit::noteReadyDelta(int delta)
{
    if (delta > 0) {
        if (ready_waves_ == 0)
            engine_.noteActivated();
        ready_waves_ += static_cast<unsigned>(delta);
    } else if (delta < 0) {
        panic_if(ready_waves_ < static_cast<unsigned>(-delta),
                 "cu.%u: ready-wave count underflow", cu_id_);
        ready_waves_ -= static_cast<unsigned>(-delta);
        if (ready_waves_ == 0)
            engine_.noteDeactivated();
    }
}

Wavefront *
ComputeUnit::pickWave(unsigned simd)
{
    // Greedy oldest-first: a SIMD's list is in dispatch order (waves are
    // appended at dispatch, so dispatch ticks never decrease along it,
    // and removal keeps the order), so its first Ready wave whose issue
    // throttle has passed is the eligible wave with the earliest
    // dispatch tick, ties going to the earlier dispatch.
    const Tick now = engine_.now();
    const std::vector<Wavefront *> &list = simd_waves_[simd];
    for (std::uint64_t bits = simd_ready_[simd]; bits; bits &= bits - 1) {
        Wavefront *w = list[std::countr_zero(bits)];
        if (w->nextIssue <= now)
            return w;
    }
    return nullptr;
}

void
ComputeUnit::tick()
{
    const Tick now = engine_.now();
    if (inject_) {
        if (inject_->wantLaneBitmapFlip(now))
            corruptLaneBitmap();
        if (inject_->stallThisCycle(now)) {
            // An injected pipeline stall eats the issue slot exactly
            // like a scoreboard conflict.
            if (cyc_)
                cyc_->chargeCycle(cycacct::Bucket::ScoreboardWait, now);
            return;
        }
    }
    bool busy = false;
    for (unsigned s = 0; s < cfg_.simdPerCu; ++s) {
        if (simd_busy_[s] > now) {
            busy = true; // mid-execution (multi-cycle VALU occupancy)
            continue;
        }
        if (simd_ready_[s] == 0)
            continue;
        if (Wavefront *wave = pickWave(s)) {
            executeOne(*wave, s);
            busy = true;
        }
    }
    if (cyc_) {
        // Busy when any SIMD executed or was mid-execution.
        cyc_->chargeCycle(busy ? cycacct::Bucket::Busy
                               : cycacct::Bucket::ScoreboardWait,
                          now);
        // Execution may have stalled or retired the last ready wave; the
        // engine will not tick this CU again until something wakes it,
        // so classify the gap that starts next cycle.
        if (ready_waves_ == 0)
            cyc_->setGapClass(classifyStall());
    }
}

cycacct::Bucket
ComputeUnit::classifyStall() const
{
    if (waves_.empty()) {
        return dispatch_exhausted_ ? cycacct::Bucket::DrainedIdle
                                   : cycacct::Bucket::FetchEmpty;
    }
    bool txs = false, masks = false, waiting = false;
    for (const auto &w : waves_) {
        if (w->outstanding_txs_ > 0)
            txs = true;
        if (w->outstanding_masks_ > 0)
            masks = true;
        if (w->status == WaveStatus::Waiting)
            waiting = true;
    }
    if (txs) {
        return hier_.l1(sa_id_).saturated()
                   ? cycacct::Bucket::MshrBackpressure
                   : cycacct::Bucket::MemLatency;
    }
    if (masks)
        return cycacct::Bucket::SuspZero;
    if (waiting)
        return cycacct::Bucket::ScoreboardWait;
    // Residual: resident waves, none ready/waiting/outstanding (e.g. a
    // Ready wave throttled by nextIssue). The pipeline is the holdup.
    return cycacct::Bucket::ScoreboardWait;
}

void
ComputeUnit::enableCycleAccounting(cycacct::IntervalSampler *sampler)
{
    cyc_ = std::make_unique<cycacct::CuCycleAccount>(
        stats_, cuPrefix(cfg_, cu_id_, sa_id_));
    if (sampler)
        sampler->registerAccount(cyc_.get(), &engine_);
}

void
ComputeUnit::finalizeCycleAccounting()
{
    if (!cyc_)
        return;
    cyc_->finalize(engine_.now());
#ifdef LAZYGPU_CHECK
    panic_if(cyc_->total() != engine_.now(),
             "cu.%u: cycle buckets sum to %llu but %llu cycles elapsed",
             cu_id_, static_cast<unsigned long long>(cyc_->total()),
             static_cast<unsigned long long>(engine_.now()));
#endif
}

void
ComputeUnit::syncCycleAccounting()
{
    if (cyc_)
        cyc_->syncTo(engine_.now());
}

void
ComputeUnit::setDispatchExhausted(bool exhausted)
{
    dispatch_exhausted_ = exhausted;
    // A quiescent, empty CU flips between FetchEmpty and DrainedIdle the
    // moment dispatch progress changes.
    restallIfQuiescent();
}

void
ComputeUnit::executeOne(Wavefront &wave, unsigned simd)
{
    const Instruction &inst = wave.kernel().code[wave.pc];
    const Tick now = engine_.now();

#ifdef LAZYGPU_CHECK
    verif::checkWavefront(wave, mode_);
#endif

    // VALU: a 64-lane wavefront occupies the 16-wide SIMD for 4 cycles.
    const bool valu = isVectorAlu(inst.op);
    switch (lazy_.execute(wave, inst)) {
      case LazyUnit::Step::Wait:
        setStatus(wave, WaveStatus::Waiting);
        return;
      case LazyUnit::Step::Endpgm:
        setStatus(wave, WaveStatus::Done);
        maybeFinalize(&wave); // may destroy the wavefront
        break;
      case LazyUnit::Step::Done:
        if (valu)
            wave.nextIssue = now + cfg_.aluLatency;
        break;
    }
    const unsigned occupancy = valu ? cfg_.aluLatency : 1;
    simd_busy_[simd] = now + occupancy;
    simd_busy_cycles_ += occupancy;
}

// --- Lazy Unit port -----------------------------------------------------

void
ComputeUnit::requestIssue(Wavefront &wave, PendingLoad &pl)
{
    if (pl.masksOutstanding > 0) {
        // Fig 7: the Read Req may only be issued once the Zero Read Rsp
        // is back; park until the masks arrive.
        pl.issueRequested = true;
    } else {
        lazy_.issue(wave, pl);
    }
}

bool
ComputeUnit::maskResident(Addr mask_addr)
{
    return hier_.maskResidentInL1(sa_id_, mask_addr);
}

void
ComputeUnit::markInFlight(Wavefront &wave, const PendingLoad &pl,
                          const PendingLoad::Tx &tx)
{
    for (unsigned r = 0; r < pl.numRegs; ++r)
        wave.markInFlight(pl.firstDst + r, tx.words[r]);
}

unsigned
ComputeUnit::addFlight(const Flight &f)
{
    if (free_flights_.empty()) {
        flights_.push_back(f);
        return static_cast<unsigned>(flights_.size() - 1);
    }
    const unsigned slot = free_flights_.back();
    free_flights_.pop_back();
    flights_[slot] = f;
    return slot;
}

ComputeUnit::Flight
ComputeUnit::takeFlight(unsigned slot)
{
    free_flights_.push_back(slot);
    return flights_[slot];
}

void
ComputeUnit::shortCircuit(Wavefront &wave, PendingLoad &pl,
                          PendingLoad::Tx &tx)
{
    if (trace_) {
        trace_->emit(TraceKind::ZcShortCircuit, traceTrack(), 0,
                     engine_.now(), 0, tx.addr);
    }
    markInFlight(wave, pl, tx);
    ++wave.outstanding_txs_;
    const unsigned slot = addFlight(Flight{
        &wave, pl.slot, pl.id,
        static_cast<unsigned>(&tx - pl.txs.data()), tx.addr, 0, 0, 0});
    engine_.scheduleIn(cfg_.lsuPipeLatency + cfg_.l1HitLatency,
                       [this, slot]() {
        const Flight f = takeFlight(slot);
        Wavefront &w = *f.wave;
        --w.outstanding_txs_;
        if (PendingLoad *p = w.pendingAt(f.plSlot, f.plId)) {
            lazy_.zeroFill(w, *p, p->txs[f.txIdx]);
            lazy_.finishIfResolved(w, *p);
        }
        wake(w);
        maybeFinalize(&w);
        restallIfQuiescent();
    });
}

void
ComputeUnit::sendData(Wavefront &wave, PendingLoad &pl,
                      PendingLoad::Tx &tx)
{
    markInFlight(wave, pl, tx);
    ++wave.outstanding_txs_;
    ++pl.inflightTxs;

    const Tick issue_tick = engine_.now();
    lifecycle_.issued(issue_tick - pl.recordTick);
    std::uint64_t span_id = 0;
    if (trace_) {
        span_id = trace_->nextId();
        trace_->emit(TraceKind::TxBegin, traceTrack(), 0, issue_tick,
                     span_id, tx.addr);
    }
    const unsigned slot = addFlight(Flight{
        &wave, pl.slot, pl.id, static_cast<unsigned>(&tx - pl.txs.data()),
        tx.addr, issue_tick, pl.recordTick, span_id});
    Completion done = [this, slot]() { onDataResponse(slot); };
    if (inject_) {
        const Tick now = engine_.now();
        if (inject_->dropResponse(now)) {
            // The hierarchy still services the access; the completion
            // never reaches the LSU (a lost response packet).
            done = nullptr;
        } else if (const Tick d = inject_->extraResponseDelay(now)) {
            panic_if(d > ~std::uint32_t(0),
                     "cu.%u: injected response delay out of range",
                     cu_id_);
            done = [this, slot, d32 = static_cast<std::uint32_t>(d)]() {
                engine_.scheduleIn(d32, [this, slot]() {
                    onDataResponse(slot);
                });
            };
        }
    }
    issueTx(tx.addr, false, done);
}

void
ComputeUnit::onDataResponse(unsigned slot)
{
    const Flight f = takeFlight(slot);
    Wavefront &w = *f.wave;
    --w.outstanding_txs_;
    const Tick lat = engine_.now() - f.issueTick;
    mem_latency_.sample(static_cast<double>(lat));
    lifecycle_.resolved(engine_.now() - f.recordTick);
    if (trace_) {
        trace_->emit(TraceKind::TxEnd, traceTrack(), 0, engine_.now(),
                     f.spanId, f.addr);
    }
    bool load_drained = true;
    if (PendingLoad *p = w.pendingAt(f.plSlot, f.plId)) {
        --p->inflightTxs;
        load_drained = p->inflightTxs == 0;
        if (inject_ && inject_->wantScoreboardFlip(engine_.now()))
            p->wordsLeft += 1;
        lazy_.fill(w, *p, p->txs[f.txIdx]);
        lazy_.finishIfResolved(w, *p);
    }
    // Waking per transaction would burn issue slots on futile
    // re-executions; wake once the whole load's data is in.
    if (load_drained)
        wake(w);
    maybeFinalize(&w);
    restallIfQuiescent();
}

void
ComputeUnit::probeMasks(Wavefront &wave, PendingLoad &pl,
                        const std::vector<Addr> &mask_txs)
{
    pl.masksOutstanding += static_cast<unsigned>(mask_txs.size());
    for (Addr ma : mask_txs) {
        ++wave.outstanding_masks_;
        std::uint64_t span_id = 0;
        if (trace_) {
            span_id = trace_->nextId();
            trace_->emit(TraceKind::MaskBegin, traceTrack(), 0,
                         engine_.now(), span_id, ma);
        }
        const unsigned slot = addFlight(Flight{
            &wave, pl.slot, pl.id, 0, ma, 0, pl.recordTick, span_id});
        issueMaskTx(ma, false, [this, slot]() { onMaskResponse(slot); });
    }
}

void
ComputeUnit::onMaskResponse(unsigned slot)
{
    const Flight f = takeFlight(slot);
    Wavefront &w = *f.wave;
    --w.outstanding_masks_;
    lifecycle_.maskProbed(engine_.now() - f.recordTick);
    if (trace_) {
        trace_->emit(TraceKind::MaskEnd, traceTrack(), 0, engine_.now(),
                     f.spanId, f.addr);
    }
    bool masks_done = true;
    if (PendingLoad *p = w.pendingAt(f.plSlot, f.plId)) {
        --p->masksOutstanding;
        masks_done = p->masksOutstanding == 0;
        // Data region covered by this 32 B mask transaction: 1 KiB.
        if (hasZeroElimination(mode_)) {
            lazy_.applyZeroMask(
                w, *p, GlobalMemory::maskedDataAddr(f.addr),
                GlobalMemory::maskedDataAddr(f.addr + transactionSize));
        }
    }
    // The mask may have resolved everything; otherwise honour a parked
    // issue request now that the Zero Read Rsp is back (re-running the
    // look-ahead so optimization (2) sees the freshly zeroed
    // counterpart values).
    if (PendingLoad *p = w.pendingAt(f.plSlot, f.plId);
        p && masks_done && p->issueRequested &&
        w.status != WaveStatus::Done) {
        lazy_.windowIssue(w);
        if (PendingLoad *p2 = w.pendingAt(f.plSlot, f.plId);
            p2 && p2->issueRequested) {
            lazy_.issue(w, *p2);
        }
    }
    if (masks_done)
        wake(w);
    maybeFinalize(&w);
    restallIfQuiescent();
}

void
ComputeUnit::writeMask(Addr mask_addr)
{
    if (trace_) {
        trace_->emit(TraceKind::MaskWrite, traceTrack(), 0, engine_.now(),
                     0, mask_addr);
    }
    issueMaskTx(mask_addr, true, nullptr);
}

void
ComputeUnit::writeData(Addr tx_addr, bool zero_skipped)
{
    if (trace_) {
        trace_->emit(TraceKind::StoreTx, traceTrack(), zero_skipped ? 1 : 0,
                     engine_.now(), 0, tx_addr);
    }
    if (!zero_skipped)
        issueTx(tx_addr, true, nullptr); // posted write
}

void
ComputeUnit::issueTx(Addr addr, bool write, Completion cb)
{
    engine_.scheduleIn(cfg_.lsuPipeLatency, [this, addr, write, cb]() {
        hier_.accessData(sa_id_, addr, transactionSize, write, cb);
    });
}

void
ComputeUnit::issueMaskTx(Addr mask_addr, bool write, Completion cb)
{
    engine_.scheduleIn(cfg_.lsuPipeLatency,
                       [this, mask_addr, write, cb]() {
                           hier_.accessMask(sa_id_, mask_addr, write, cb);
                       });
}

void
ComputeUnit::corruptLaneBitmap()
{
    // Losing a set bit of the (2)-suspension bitmap (Suspended ->
    // Ready) makes the lane read stale register data instead of the
    // architectural zero AND strands the scoreboard word the mark
    // covered (resolution skips Ready lanes, so the retire invariant can
    // fire). Gaining a spurious bit (Pending -> Suspended) zeroes a live
    // operand until the next consumer requalifies it. Modes without
    // optimization (2) have no suspension state: the upset lands on
    // nothing (flipping a lane Suspended there would fabricate a state
    // such a CU cannot hold).
    if (!hasOtimesElimination(mode_))
        return;
    const unsigned want = inject_->laneFromSeed();
    for (const auto &w : waves_) {
        for (unsigned r = 0; r < w->kernel().numVregs; ++r) {
            for (unsigned l = 0; l < wavefrontSize; ++l) {
                const unsigned lane = (want + l) % wavefrontSize;
                if (w->regState(r, lane) == RegState::Suspended) {
                    w->setRegState(r, lane, RegState::Ready);
                    return;
                }
            }
        }
    }
    for (const auto &w : waves_) {
        for (unsigned r = 0; r < w->kernel().numVregs; ++r) {
            for (unsigned l = 0; l < wavefrontSize; ++l) {
                const unsigned lane = (want + l) % wavefrontSize;
                if (w->regState(r, lane) == RegState::Pending) {
                    w->setRegState(r, lane, RegState::Suspended);
                    return;
                }
            }
        }
    }
    // No live lane metadata on this CU: flip the zero bitmap the
    // suspension rule consults instead.
    if (!waves_.empty()) {
        Wavefront &w = *waves_.front();
        w.setZeroMask(0, w.zeroMask(0) ^
                             (LaneMask(1) << inject_->laneFromSeed()));
    }
}

void
ComputeUnit::wake(Wavefront &wave)
{
    if (wave.status == WaveStatus::Waiting)
        setStatus(wave, WaveStatus::Ready);
}

void
ComputeUnit::maybeFinalize(Wavefront *wave)
{
    if (wave->status != WaveStatus::Done || !wave->drained())
        return;
    panic_if(wave->pendingCount() != 0,
             "retiring wavefront with unresolved pending loads");
    auto it = std::find_if(waves_.begin(), waves_.end(),
                           [wave](const std::unique_ptr<Wavefront> &w) {
                               return w.get() == wave;
                           });
    panic_if(it == waves_.end(), "finalizing an unknown wavefront");
    if (trace_) {
        trace_->emit(TraceKind::WaveEnd, traceTrack(), 0, engine_.now(),
                     wave->traceId, wave->wid());
    }
    // Close the wave's gap in its SIMD's list and ready bitmap (a Done
    // wave's ready bit is already clear).
    std::vector<Wavefront *> &list = simd_waves_[wave->simdId];
    const unsigned pos = wave->simdPos;
    list.erase(list.begin() + pos);
    for (unsigned i = pos; i < list.size(); ++i)
        list[i]->simdPos = i;
    std::uint64_t &ready = simd_ready_[wave->simdId];
    const std::uint64_t below = (std::uint64_t(1) << pos) - 1;
    ready = (ready & below) | ((ready >> 1) & ~below);
    waves_.erase(it);
    if (retire_cb_)
        retire_cb_();
}

} // namespace lazygpu
