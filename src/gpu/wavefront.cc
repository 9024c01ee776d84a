#include "gpu/wavefront.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace lazygpu
{

Wavefront::Wavefront(const Kernel &kernel, unsigned wid)
    : kernel_(&kernel), wid_(wid), values_(kernel.numVregs),
      regs_(kernel.numVregs)
{
    // values_ is value-initialised by the vector fill constructor: every
    // word reads 0 without a second zeroing pass; the zero bitmap starts
    // at allLanes to match, and every lane starts Ready.
    // Room for the live loads of a typical wave up front, so the slot
    // store does not grow step by step.
    slots_.reserve(16);
    sregs.assign(kernel.numSregs, 0);
    sregs[0] = wid;
    if (kernel.initSregs)
        kernel.initSregs(wid, sregs);
}

PendingLoad &
Wavefront::emplacePending(PendingLoad &pl)
{
    std::vector<PendingLoad::Tx> txs = std::move(pl.txs);
    txs.clear();
    pl = PendingLoad{};
    pl.txs = std::move(txs);
    pl.id = next_pending_id_++;
    auto free = std::find(slots_.begin(), slots_.end(), nullptr);
    if (free == slots_.end())
        free = slots_.emplace(free);
    pl.slot = static_cast<unsigned>(free - slots_.begin());
    ++live_pendings_;
    *free = &pl;
    return pl;
}

void
Wavefront::claimOwners(PendingLoad &pl)
{
    for (unsigned r = pl.firstDst; r < pl.firstDst + pl.numRegs; ++r)
        regs_[r].owner = &pl;
}

void
Wavefront::removePending(PendingLoad &pl)
{
    for (unsigned r = pl.firstDst; r < pl.firstDst + pl.numRegs; ++r) {
        if (regs_[r].owner == &pl)
            regs_[r].owner = nullptr;
    }
    --live_pendings_;
    slots_[pl.slot] = nullptr;
}

} // namespace lazygpu
