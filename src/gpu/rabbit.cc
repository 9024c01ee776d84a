#include "gpu/rabbit.hh"

#include "sim/domains.hh"
#include "sim/logging.hh"

namespace lazygpu
{

RabbitExecutor::RabbitExecutor(const GpuConfig &cfg, GlobalMemory &mem,
                               StatsRegistry &stats,
                               DomainScheduler *domains)
    : domains_(domains), mode_(cfg.mode),
      zl1_line_(cfg.l1Zero.lineSize ? cfg.l1Zero.lineSize : 64),
      mask_line_cap_(cfg.l1Zero.size > 0 && cfg.l2Zero.size > 0
                         ? std::size_t(cfg.numShaderArrays) *
                               static_cast<std::size_t>(cfg.l1Zero.size /
                                                        zl1_line_)
                         : 0),
      beat_countdown_(beatInterval),
      lazy_(cfg, mem, stats, "gpu.rabbit.", *this, nullptr, nullptr)
{
}

std::uint64_t
RabbitExecutor::run(const Kernel &kernel, unsigned wid,
                    std::uint64_t max_insts)
{
    Wavefront wave(kernel, wid);
    const auto &code = kernel.code;
    std::uint64_t insts = 0;
    LazyUnit::Step step = LazyUnit::Step::Done;

    while (step != LazyUnit::Step::Endpgm) {
        fatal_if(wave.pc >= code.size(),
                 "rabbit: wid %u ran past the end of '%s' (pc %u)", wid,
                 kernel.name.c_str(), wave.pc);
        fatal_if(++insts > max_insts,
                 "rabbit: wid %u exceeded %llu instructions in '%s'; "
                 "livelocked kernel",
                 wid, static_cast<unsigned long long>(max_insts),
                 kernel.name.c_str());
        ++total_insts_;
        if (--beat_countdown_ == 0) {
            beat_countdown_ = beatInterval;
            heartbeat();
        }
        if (!landing_masks_.empty())
            landMaskLines();

        step = lazy_.execute(wave, code[wave.pc]);
        panic_if(step == LazyUnit::Step::Wait,
                 "rabbit: wid %u stalled at pc %u with every response "
                 "applied", wid, wave.pc);
    }
    heartbeat();
    return insts;
}

void
RabbitExecutor::heartbeat()
{
    if (domains_)
        domains_->externalHeartbeat(total_insts_);
}

void
RabbitExecutor::requestIssue(Wavefront &wave, PendingLoad &pl)
{
    // Masks were applied at record time, so the Fig 7 ordering (Read
    // Req after Zero Read Rsp) holds by construction: no parking.
    lazy_.issue(wave, pl);
}

void
RabbitExecutor::probeMasks(Wavefront &wave, PendingLoad &pl,
                           const std::vector<Addr> &mask_txs)
{
    // The Zero Read Req/Rsp pairs, collapsed to record time: the Zero
    // Caches are designed for fast responses, and Fig 7 orders the data
    // Read Req strictly after the Zero Read Rsp, so by any issue
    // decision the masks have arrived. Every mask transaction "arrives"
    // at once, so one pass covers the whole footprint.
    if (hasZeroElimination(mode_)) {
        lazy_.applyZeroMask(wave, pl, 0, ~Addr(0)); // may remove pl
        return;
    }
    // EagerZC issues right after this probe; its residency check must
    // not see the load's own mask lines, so they land afterwards.
    landing_masks_.insert(landing_masks_.end(), mask_txs.begin(),
                          mask_txs.end());
}

void
RabbitExecutor::sendData(Wavefront &wave, PendingLoad &pl,
                         PendingLoad::Tx &tx)
{
    lazy_.fill(wave, pl, tx); // the response is instantaneous
}

void
RabbitExecutor::shortCircuit(Wavefront &wave, PendingLoad &pl,
                             PendingLoad::Tx &tx)
{
    lazy_.zeroFill(wave, pl, tx);
}

bool
RabbitExecutor::maskResident(Addr mask_addr)
{
    if (mask_line_cap_ == 0)
        return false;
    return mask_lines_.count(mask_addr & ~(zl1_line_ - 1)) != 0;
}

void
RabbitExecutor::landMaskLines()
{
    for (Addr ma : landing_masks_) {
        if (mask_line_cap_ == 0)
            break;
        const Addr line = ma & ~(zl1_line_ - 1);
        if (!mask_lines_.insert(line).second)
            continue;
        mask_fifo_.push_back(line);
        if (mask_fifo_.size() > mask_line_cap_) {
            mask_lines_.erase(mask_fifo_.front());
            mask_fifo_.pop_front();
        }
    }
    landing_masks_.clear();
}

} // namespace lazygpu
