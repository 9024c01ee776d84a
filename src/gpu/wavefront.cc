#include "gpu/wavefront.hh"

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
Wavefront::emplacePending()
{
    const unsigned id = next_pending_id_++;
    auto [it, fresh] = pendings_.try_emplace(id);
    panic_if(!fresh, "pending-load id reused");
    it->second.id = id;
    return it->second;
}

void
Wavefront::claimOwners(PendingLoad &pl)
{
    for (unsigned r = pl.firstDst; r < pl.firstDst + pl.numRegs; ++r)
        owner_[r] = &pl;
}

void
Wavefront::removePending(unsigned id)
{
    auto it = pendings_.find(id);
    if (it == pendings_.end())
        return;
    const PendingLoad &pl = it->second;
    for (unsigned r = pl.firstDst; r < pl.firstDst + pl.numRegs; ++r) {
        if (owner_[r] == &pl)
            owner_[r] = nullptr;
    }
    pendings_.erase(it);
}

} // namespace lazygpu
