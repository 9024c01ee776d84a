#include "gpu/wavefront.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace lazygpu
{

Wavefront::Wavefront(const Kernel &kernel, unsigned wid)
    : kernel_(&kernel), wid_(wid), values_(kernel.numVregs),
      busy_(kernel.numVregs, 0),
      susp_(kernel.numVregs, 0), inflight_(kernel.numVregs, 0),
      zero_(kernel.numVregs, allLanes), owner_(kernel.numVregs, nullptr)
{
    // values_ is value-initialised by the vector fill constructor: every
    // word reads 0 without a second zeroing pass; the zero bitmap starts
    // at allLanes to match, and every lane starts Ready.
    sregs.assign(kernel.numSregs, 0);
    sregs[0] = wid;
    if (kernel.initSregs)
        kernel.initSregs(wid, sregs);
}

PendingLoad &
Wavefront::emplacePending(std::unique_ptr<PendingLoad> pl)
{
    std::vector<PendingLoad::Tx> txs = std::move(pl->txs);
    txs.clear();
    *pl = PendingLoad{};
    pl->txs = std::move(txs);
    pl->id = next_pending_id_++;
    auto free = std::find(slots_.begin(), slots_.end(), nullptr);
    if (free == slots_.end())
        free = slots_.emplace(free);
    pl->slot = static_cast<unsigned>(free - slots_.begin());
    ++live_pendings_;
    *free = std::move(pl);
    return **free;
}

void
Wavefront::claimOwners(PendingLoad &pl)
{
    for (unsigned r = pl.firstDst; r < pl.firstDst + pl.numRegs; ++r)
        owner_[r] = &pl;
}

std::unique_ptr<PendingLoad>
Wavefront::removePending(PendingLoad &pl)
{
    for (unsigned r = pl.firstDst; r < pl.firstDst + pl.numRegs; ++r) {
        if (owner_[r] == &pl)
            owner_[r] = nullptr;
    }
    --live_pendings_;
    return std::move(slots_[pl.slot]);
}

} // namespace lazygpu
