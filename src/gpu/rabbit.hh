/**
 * @file
 * RabbitExecutor: the fast functional wavefront executor of the
 * multi-resolution (rabbit/timing) sampling scheme.
 *
 * Named after ESESC's "rabbit mode": wavefronts outside the timing
 * sampling window are interpreted straight-line -- no event engine, no
 * cache or DRAM timing, no SIMD scheduling -- while the paper's sparsity
 * machinery runs at full fidelity: the executor drives the same LazyUnit
 * as the timed ComputeUnit, so every transaction-level counter
 * (txs_issued, txs_elim_*, store_txs*, mask_reads/writes, ...) follows
 * the same rules by construction. Functional state (GlobalMemory,
 * retired register values) is bit-exact with the timed path for
 * race-free kernels.
 *
 * What the rabbit supplies is the Lazy Unit's memory port, with one
 * deliberate approximation: responses are instantaneous. Zero masks are
 * applied at record time (in the timed pipeline they arrive a few cycles
 * later but, per Fig 7, always before the data issue decision), and
 * issued data transactions resolve synchronously. For EagerZC the L1
 * Zero Cache residency that gates short-circuits is approximated by a
 * FIFO set with the same aggregate line capacity; a load's own mask
 * lines enter it at the next instruction boundary, after its issue
 * decision, as its mask fetch is still in flight at issue time in the
 * timed pipeline.
 *
 * Counters are registered under "gpu.rabbit.*" with the same leaf names
 * as the per-CU counters, so existing "gpu." + ".<name>" aggregations
 * pick them up transparently. simd_busy_cycles is deliberately absent:
 * the rabbit path has no timing, and Gpu extrapolates that counter from
 * the timed window instead. Lifecycle samples stay timed-path only.
 */

#ifndef LAZYGPU_GPU_RABBIT_HH
#define LAZYGPU_GPU_RABBIT_HH

#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "gpu/lazy_unit.hh"
#include "gpu/wavefront.hh"
#include "mem/memory.hh"
#include "obs/registry.hh"
#include "sim/config.hh"

namespace lazygpu
{

class DomainScheduler;

class RabbitExecutor : private LazyUnit::Port
{
  public:
    /**
     * @param domains when non-null, the executor publishes watchdog
     *        heartbeats (and honours cancellation) through
     *        DomainScheduler::externalHeartbeat while interpreting.
     */
    RabbitExecutor(const GpuConfig &cfg, GlobalMemory &mem,
                   StatsRegistry &stats, DomainScheduler *domains);

    /** Same contract as ComputeUnit::setRetireObserver. */
    void
    setRetireObserver(LazyUnit::RetireObserver obs)
    {
        lazy_.setRetireObserver(std::move(obs));
    }

    /** A kernel launches (see LazyUnit::beginKernel). */
    void beginKernel() { lazy_.beginKernel(); }

    /**
     * Interpret one wavefront of the kernel to completion.
     *
     * @param max_insts livelock guard (fatal when exceeded).
     * @return instructions executed.
     */
    std::uint64_t run(const Kernel &kernel, unsigned wid,
                      std::uint64_t max_insts = 4'000'000);

  private:
    // --- Lazy Unit port: every response applied at once -----------------
    void requestIssue(Wavefront &wave, PendingLoad &pl) override;
    void probeMasks(Wavefront &wave, PendingLoad &pl,
                    const std::vector<Addr> &mask_txs) override;
    bool maskResident(Addr mask_addr) override;
    void sendData(Wavefront &wave, PendingLoad &pl,
                  PendingLoad::Tx &tx) override;
    void shortCircuit(Wavefront &wave, PendingLoad &pl,
                      PendingLoad::Tx &tx) override;

    /** EagerZC: mask lines fetched by the last instruction become
     *  resident in the FIFO. */
    void landMaskLines();

    void heartbeat();

    DomainScheduler *domains_;
    const ExecMode mode_;

    /** FIFO model of the L1 Zero Caches' aggregate line capacity. */
    const Addr zl1_line_;
    const std::size_t mask_line_cap_;
    std::deque<Addr> mask_fifo_;
    std::unordered_set<Addr> mask_lines_;
    /** Mask transactions fetched by the current instruction. */
    std::vector<Addr> landing_masks_;

    std::uint64_t total_insts_ = 0;
    std::uint64_t beat_countdown_;

    /** Instructions between watchdog heartbeats. */
    static constexpr std::uint64_t beatInterval = 4096;

    LazyUnit lazy_;
};

} // namespace lazygpu

#endif // LAZYGPU_GPU_RABBIT_HH
