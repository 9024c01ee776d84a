/**
 * @file
 * DomainScheduler: conservative-lookahead parallel execution of one GPU
 * simulation, sharded by shader array (DESIGN.md §13).
 *
 * Shader arrays interact only through the banked L2/DRAM, and every
 * L1→L2 crossing pays at least the fixed hop latency (cfg.l2HopLatency).
 * That latency is the lookahead window W: each SA's clocked CUs, L1s and
 * ZL1s live in a private event domain (a full Engine with its own timing
 * wheel), each L2 bank (+ its ZL2 bank and DRAM channel) lives in a
 * memory-side bank domain, and all domains advance through the same
 * bounded window [S, S+W) in parallel. Cross-boundary messages are
 * exchanged only at window barriers, through per-(SA, bank) channels
 * drained in a fixed merge order — (when, SA index, enqueue order) for
 * requests, (when, bank domain, enqueue order) for responses — so the
 * logical event schedule is a pure function of the window sequence and
 * never of the thread count: the same simulation run with 1, 2 or 8
 * threads produces byte-identical statistics.
 *
 * This is the simulator's only schedule: every Gpu runs its kernels
 * through one scheduler. GpuConfig::saThreads only sets how many
 * threads execute the domains; with one thread (saThreads 0 or 1) the
 * coordinator runs them inline, in domain order.
 */

#ifndef LAZYGPU_SIM_DOMAINS_HH
#define LAZYGPU_SIM_DOMAINS_HH

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "mem/device.hh"
#include "sim/engine.hh"
#include "sim/serialize.hh"
#include "sim/types.hh"

namespace lazygpu
{

class DomainScheduler
{
  public:
    struct Options
    {
        /**
         * Conservative lookahead in ticks: the minimum latency of any
         * SA→memory-side or memory-side→SA crossing. Must be >= 1.
         */
        Tick lookahead = 1;
        /** Worker threads (the coordinator also executes domains). */
        unsigned threads = 1;
        /**
         * Host-side phase profiling (GpuConfig::profileScheduler):
         * accumulate wall time per scheduler phase and per domain into
         * profile(). Wall times are host-dependent — report them in
         * perf artifacts only, never in simulated-result artifacts.
         */
        bool profile = false;
    };

    /**
     * Where the scheduler's wall time goes, accumulated across every
     * run() while Options::profile is set. All times are seconds of the
     * coordinator's clock except domainSec, which sums each domain's
     * own window-execution time (on whichever thread ran it) — so
     * sum(domainSec) can exceed the coordinator phase times when
     * domains genuinely run in parallel.
     */
    struct Profile
    {
        double saPhaseSec = 0.0;     //!< SA-phase span (publish -> done)
        double bankPhaseSec = 0.0;   //!< bank-phase span
        double barrierWaitSec = 0.0; //!< coordinator idle in pool_done_
        /** Serial coordinator work: routing, delivery, hooks, polling. */
        double coordSerialSec = 0.0;
        std::uint64_t windows = 0;   //!< lookahead windows executed
        /** Per-domain runWindow seconds: SA domains, then bank domains. */
        std::vector<double> domainSec;
    };

    /** The accumulated profile (zeros unless Options::profile). */
    const Profile &profile() const { return profile_; }

    /** Where a routed boundary request goes (a RouteFn's answer). */
    struct Route
    {
        unsigned bank;     //!< owning bank domain
        Tick start;        //!< arbitrated start tick
        MemDevice *target; //!< bank-side device, runs in bank's domain
    };

    /**
     * A memory-side router: called at the window barrier, on the
     * coordinator, once per boundary request in the fixed merge order.
     * Arbitrates shared port state and names the bank-side device; the
     * scheduler then runs `target->access` at `start` in the bank's
     * domain and carries any completion back to the SA at completion
     * tick + lookahead.
     */
    using RouteFn = std::function<Route(unsigned sa, Tick when,
                                        const MemAccess &acc)>;

    DomainScheduler(Options opts, unsigned num_sa, unsigned num_banks);
    ~DomainScheduler();

    DomainScheduler(const DomainScheduler &) = delete;
    DomainScheduler &operator=(const DomainScheduler &) = delete;

    unsigned numSaDomains() const { return num_sa_; }
    unsigned numBankDomains() const { return num_banks_; }
    Tick lookahead() const { return opts_.lookahead; }
    /** Threads executing domains, the coordinator included (>= 1). */
    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /** The event domain owning SA sa's CUs, L1 and ZL1. */
    Engine &saEngine(unsigned sa) { return sa_[sa]->engine; }
    /** The event domain owning L2/ZL2 bank b and DRAM channel b. */
    Engine &bankEngine(unsigned bank) { return banks_[bank]->engine; }

    /** Register a memory-side router; returns its id for port(). */
    unsigned addRouter(RouteFn fn);

    /**
     * The SA-side endpoint of router `router` in domain `sa`: a
     * MemDevice whose access() enqueues the request into the SA's
     * outbox channel (drained at the next window barrier). Stable for
     * the scheduler's lifetime.
     */
    MemDevice &port(unsigned sa, unsigned router);

    /**
     * Invoked on the coordinator at every window barrier, after
     * responses have been delivered and before the idle check. The Gpu
     * uses it for deferred wavefront refill (the dispatch cursor is
     * shared across SAs and must not be touched from domain threads).
     */
    void setBarrierHook(std::function<void()> hook)
    {
        barrier_hook_ = std::move(hook);
    }

    /**
     * Attach a trace sink to every domain engine: each records its
     * EngineCounters samples on its own track (SA domains first, then
     * bank domains). One sink is shared by all domains, so a traced
     * scheduler must run on one thread.
     */
    void attachTrace(TraceSink *trace);

    /**
     * Watchdog channel, polled on the coordinator at every window
     * barrier: publishes an aggregated heartbeat (max domain tick +
     * total events executed) and throws SimError(Timeout) on cancel —
     * always from the coordinator thread, where the snapshot source
     * lives, so crash snapshots stay valid.
     */
    void attachControl(ExecControl *ctl) { ctl_ = ctl; }

    /**
     * Watchdog heartbeat for work outside the domains (the rabbit
     * functional executor): publishes the aggregated beat plus
     * `progress` and honours the cancel flag like a barrier poll.
     * No-op when no control channel is attached.
     */
    void externalHeartbeat(std::uint64_t progress);

    /**
     * Serialize every domain engine's Engine::CheckpointState, SA
     * domains first (DESIGN.md §15). The channels carry no state
     * between run() calls: the barrier merges order by position, not
     * by a sequence counter. Only legal between run() calls, when every
     * domain is idle and every channel empty; panics otherwise.
     */
    void checkpointTo(ByteWriter &w) const;

    /**
     * Restore state saved by checkpointTo into a scheduler whose
     * domains have not run yet. Fatal on a domain-count mismatch.
     */
    void restoreFrom(ByteReader &r);

    /**
     * Run rounds of lookahead windows until every domain is idle and
     * all channels are empty. Returns the maximum domain tick. When the
     * earliest pending event lies beyond `limit`, returns early with
     * the event still queued (detect via anyPendingEvents()), matching
     * Engine::run's cycle-limit contract.
     */
    Tick run(Tick limit = maxTick);

    /**
     * Tear down every domain wheel and cross-domain channel and re-arm
     * them empty: all domain engines reset (events discarded, clocked
     * components deregistered, time zero), outboxes and response
     * buffers cleared, routers and ports dropped. Worker threads are
     * kept parked.
     */
    void reset();

    // --- Aggregates across domains (mirror the Engine accessors) -------
    /** Maximum domain tick: the frontier the simulation has reached. */
    Tick now() const;
    std::uint64_t eventsExecuted() const;
    std::uint64_t poolChunks() const;
    std::uint64_t oversizedEvents() const;
    std::size_t numPendingEvents() const;
    bool anyPendingEvents() const { return numPendingEvents() != 0; }
    unsigned activeClocked() const;
    /** Barrier heartbeat samples, oldest first (crash snapshots). */
    std::vector<std::pair<Tick, std::uint64_t>> recentActivity() const;

  private:
    /**
     * One SA→memory-side boundary crossing, from request to response.
     * Taken from its SA domain's pool when the SA issues the request,
     * routed at the next barrier and, when it carries a completion,
     * handed through the bank domain and delivered back to the SA at a
     * later barrier, where it returns to the pool.
     */
    struct Crossing
    {
        Crossing *next = nullptr; //!< outbox, response or free list
        Tick when = 0;            //!< request tick, then delivery tick
        unsigned sa = 0;
        unsigned router = 0;
        unsigned bank = 0; //!< set when routed
        MemAccess acc;
        Completion done;
    };

    /** Intrusive FIFO of crossings (enqueue order). */
    struct CrossingList
    {
        Crossing *head = nullptr;
        Crossing *tail = nullptr;

        bool empty() const { return head == nullptr; }

        void
        push(Crossing *c)
        {
            c->next = nullptr;
            (tail ? tail->next : head) = c;
            tail = c;
        }
    };

    /**
     * Free-listed crossing storage in fixed chunks, grown on demand and
     * never shrunk: once warm, a crossing allocates nothing. Owned by
     * one SA domain; taken by its worker during the SA phase, returned
     * by the coordinator at barriers — never both at once.
     */
    class CrossingPool
    {
      public:
        Crossing *take();
        void give(Crossing *c);
        /** Drop every crossing, taken or free (scheduler reset). */
        void
        clear()
        {
            free_ = nullptr;
            chunks_.reset();
        }

      private:
        static constexpr unsigned chunkSize = 256;
        struct Chunk
        {
            std::unique_ptr<Chunk> next;
            std::array<Crossing, chunkSize> slots;
        };
        std::unique_ptr<Chunk> chunks_;
        Crossing *free_ = nullptr;
    };

    class BoundaryPort : public MemDevice
    {
      public:
        BoundaryPort(DomainScheduler &owner, unsigned sa, unsigned router)
            : owner_(owner), sa_(sa), router_(router)
        {
        }

        void
        access(const MemAccess &acc, Completion done) override
        {
            owner_.enqueueRequest(sa_, router_, acc, done);
        }

      private:
        DomainScheduler &owner_;
        unsigned sa_;
        unsigned router_;
    };

    struct SaDomain
    {
        Engine engine;
        std::vector<std::unique_ptr<BoundaryPort>> ports;
        CrossingPool pool;
        // Single-writer channel: only this domain's worker appends
        // (during its window), only the coordinator drains (at the
        // barrier). No locking needed.
        CrossingList outbox;
    };

    struct BankDomain
    {
        Engine engine;
        // Single-writer, as above but written by the bank worker.
        CrossingList responses;
    };

    void enqueueRequest(unsigned sa, unsigned router, const MemAccess &acc,
                        Completion done);
    /** A bank-side access completed: queue its response for the SA. */
    void respond(Crossing *c);
    /** Heartbeat + activity ring + cancel check (barrier and rabbit). */
    void publishBeat(std::uint64_t progress);

    /** Run one phase (all SA domains or all bank domains) to `end`. */
    void runPhase(bool sa_phase, Tick end, Tick limit);
    void runDomain(unsigned item);
    void workerLoop(bool arm_recoverable);
    /** Claim the next unstarted domain of generation gen, or -1. */
    int claimDomain(std::uint64_t gen);
    /** Claim-and-run until generation gen has no unstarted domains. */
    void drainClaims(std::uint64_t gen);

    /** Drain all outboxes in merge order and route the requests. */
    void routeRequests();
    /** Deliver all buffered responses into the SA wheels. */
    void deliverResponses();

    Options opts_;
    unsigned num_sa_;
    unsigned num_banks_;

    std::vector<std::unique_ptr<SaDomain>> sa_;
    std::vector<std::unique_ptr<BankDomain>> banks_;
    std::vector<RouteFn> routers_;
    std::function<void()> barrier_hook_;

    /** Per-channel read positions of the barrier k-way merges. */
    std::vector<Crossing *> cursor_;

    // --- Worker pool: generation-signalled phase execution -------------
    std::vector<std::thread> workers_;
    std::mutex pool_mutex_;
    std::condition_variable pool_work_;
    std::condition_variable pool_done_;
    std::uint64_t pool_gen_ = 0;
    bool pool_exit_ = false;
    // Phase state: written by the coordinator under pool_mutex_ before
    // the generation bump; workers read it only after a successful
    // generation-checked claim (same mutex), so no phase field is ever
    // read and written concurrently.
    bool phase_is_sa_ = true;
    Tick phase_end_ = 0;
    Tick phase_limit_ = 0;
    unsigned phase_total_ = 0;
    unsigned phase_claimed_ = 0;
    unsigned phase_done_ = 0;
    std::vector<std::exception_ptr> phase_errors_;

    // --- Phase profiling (Options::profile) -----------------------------
    Profile profile_;
    /**
     * Guards profile_.domainSec only: domains run concurrently on pool
     * threads, off the pool_mutex_. The scalar phase fields are only
     * touched by the coordinator.
     */
    std::mutex profile_mutex_;

    // --- Watchdog -------------------------------------------------------
    ExecControl *ctl_ = nullptr;
    /** Heartbeat samples retained for crash snapshots. */
    static constexpr unsigned recentTraceSize = 16;
    std::array<std::pair<Tick, std::uint64_t>, recentTraceSize> trace_{};
    std::uint64_t trace_count_ = 0;
};

} // namespace lazygpu

#endif // LAZYGPU_SIM_DOMAINS_HH
