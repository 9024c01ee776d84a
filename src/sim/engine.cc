#include "sim/engine.hh"

#include <bit>

#include "obs/trace.hh"

namespace lazygpu
{

Engine::EventRecord *
Engine::allocRecord()
{
    if (!free_)
        growPool();
    EventRecord *r = free_;
    free_ = r->next;
    return r;
}

void
Engine::growPool()
{
    chunks_.push_back(std::make_unique<EventRecord[]>(recordsPerChunk));
    EventRecord *chunk = chunks_.back().get();
    for (unsigned i = 0; i < recordsPerChunk; ++i) {
        chunk[i].next = free_;
        free_ = &chunk[i];
    }
}

void
Engine::enqueue(EventRecord *r)
{
    ++num_events_;
    if (r->when - now_ < wheelSize)
        pushBucket(r);
    else
        overflow_.push(r);
}

void
Engine::pushBucket(EventRecord *r)
{
    const unsigned b = static_cast<unsigned>(r->when) & wheelMask;
    Bucket &bucket = ring_[b];
    r->next = nullptr;
    if (bucket.tail)
        bucket.tail->next = r;
    else
        bucket.head = r;
    bucket.tail = r;
    occupied_[b >> 6] |= std::uint64_t(1) << (b & 63);
    ++ring_count_;
}

void
Engine::advanceTo(Tick t)
{
    now_ = t;
    // Migrate overflow events whose tick entered the ring horizon. This
    // runs before any same-tick event can be scheduled directly into the
    // ring, and the heap pops in (when, seq) order, so FIFO-within-tick
    // is preserved across the two levels.
    while (!overflow_.empty() && overflow_.top()->when - now_ < wheelSize) {
        EventRecord *r = overflow_.top();
        overflow_.pop();
        pushBucket(r); // num_events_ is unchanged: still pending
    }
    if (trace_sink_ && t - trace_sink_last_ >= traceSampleTicks) {
        trace_sink_last_ = t;
        trace_sink_->emit(
            TraceKind::EngineCounters, trace_track_, 0, now_, num_events_,
            (static_cast<std::uint64_t>(chunks_.size()) << 32) |
                active_clocked_);
    }
}

Tick
Engine::nextEventTick() const
{
    if (ring_count_ == 0) {
        panic_if(overflow_.empty(), "nextEventTick with no events");
        return overflow_.top()->when;
    }
    // Scan the occupancy bitmap from now_ forward (wrapping) for the
    // first nonempty bucket; all ring events lie in [now, now+wheelSize).
    const unsigned start = static_cast<unsigned>(now_) & wheelMask;
    const unsigned start_word = start >> 6;
    const unsigned start_bit = start & 63;

    std::uint64_t bits = occupied_[start_word] >> start_bit;
    if (bits)
        return now_ + std::countr_zero(bits);
    for (unsigned i = 1; i <= bitmapWords; ++i) {
        const unsigned word = (start_word + i) & (bitmapWords - 1);
        bits = occupied_[word];
        if (i == bitmapWords) {
            // Wrapped back to the start word: only bits below start
            // (buckets just under a full wheel turn away) remain.
            bits &= start_bit ? ((std::uint64_t(1) << start_bit) - 1) : 0;
        }
        if (bits) {
            const unsigned b =
                (word << 6) + static_cast<unsigned>(std::countr_zero(bits));
            return now_ + ((b - start) & wheelMask);
        }
    }
    panic("ring_count_ nonzero but no occupied bucket");
}

void
Engine::drainEventsAtNow()
{
    const unsigned b = static_cast<unsigned>(now_) & wheelMask;
    Bucket &bucket = ring_[b];
    while (bucket.head) {
        EventRecord *r = bucket.head;
        bucket.head = r->next;
        if (!bucket.head)
            bucket.tail = nullptr;
        --num_events_;
        --ring_count_;
        ++events_executed_;
        // invoke() recycles the record before running the callable, so
        // the callback may schedule new events (possibly at now_, which
        // appends to this same bucket and keeps the loop going).
        r->invoke(*this, r);
    }
    occupied_[b >> 6] &= ~(std::uint64_t(1) << (b & 63));
}

Tick
Engine::run(Tick limit)
{
    while (true) {
        drainEventsAtNow();

        if (active_clocked_ == 0) {
            if (num_events_ == 0)
                return now_;
            const Tick next = nextEventTick();
            if (next > limit) {
                // A legitimate long-latency event lies beyond the guard:
                // that is the cycle limit being reached, not a livelock.
                // Return with the event still queued so the caller can
                // detect the truncation via hasPendingEvents().
                warn("cycle limit %llu reached while idle until the next "
                     "event at %llu; returning early",
                     static_cast<unsigned long long>(limit),
                     static_cast<unsigned long long>(next));
                return now_;
            }
            // Fast-forward to the next event; every clocked component is
            // stalled waiting on the memory system.
            advanceTo(next);
        } else {
            for (Clocked *c : clocked_) {
                if (!c->quiescent())
                    c->tick();
            }
            advanceTo(now_ + 1);
            panic_if(now_ > limit,
                     "clocked components still ticking past %llu cycles; "
                     "livelock suspected",
                     static_cast<unsigned long long>(limit));
        }
    }
}

Tick
Engine::runWindow(Tick end, Tick limit)
{
    while (now_ < end) {
        drainEventsAtNow();

        if (active_clocked_ == 0) {
            if (num_events_ == 0)
                return now_;
            const Tick next = nextEventTick();
            if (next >= end)
                return now_;
            advanceTo(next);
        } else {
            for (Clocked *c : clocked_) {
                if (!c->quiescent())
                    c->tick();
            }
            advanceTo(now_ + 1);
            panic_if(now_ > limit,
                     "clocked components still ticking past %llu cycles; "
                     "livelock suspected",
                     static_cast<unsigned long long>(limit));
        }
    }
    return now_;
}

void
Engine::clearEvents()
{
    for (Bucket &bucket : ring_) {
        while (bucket.head) {
            EventRecord *r = bucket.head;
            bucket.head = r->next;
            r->destroy(r);
            freeRecord(r);
        }
        bucket.tail = nullptr;
    }
    while (!overflow_.empty()) {
        EventRecord *r = overflow_.top();
        overflow_.pop();
        r->destroy(r);
        freeRecord(r);
    }
    occupied_.fill(0);
    num_events_ = 0;
    ring_count_ = 0;
}

void
Engine::reset()
{
    clearEvents();
    now_ = 0;
    next_seq_ = 0;
    events_executed_ = 0;
    oversized_events_ = 0;
    // Deregister the clocked components too: a stale registration would
    // double-tick components of a previous simulation sharing this
    // engine (and their activity notifications would corrupt the count).
    clocked_.clear();
    active_clocked_ = 0;
    trace_sink_last_ = 0;
}

} // namespace lazygpu
