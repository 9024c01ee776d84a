/**
 * @file
 * The timing-side memory interface shared by caches, crossbars and DRAM.
 */

#ifndef LAZYGPU_MEM_DEVICE_HH
#define LAZYGPU_MEM_DEVICE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>

#include "sim/types.hh"

namespace lazygpu
{

/** One timing access (reads and writes; data moves functionally). */
struct MemAccess
{
    Addr addr = 0;
    unsigned size = transactionSize;
    bool write = false;
};

/**
 * Invoked when an access completes at the requesting level.
 *
 * A completion is a function pointer plus up to payloadBytes of
 * captures, held inline: every requester captures at most a component
 * pointer and a slot (the CU's flight slot, the domain scheduler's
 * crossing, a cache's line address), so a request never allocates and
 * copying one is a 24-byte copy. Captures must be trivially copyable;
 * a larger or non-trivial capture is rejected at compile time.
 */
class Completion
{
  public:
    static constexpr std::size_t payloadBytes = 16;

    Completion() = default;
    Completion(std::nullptr_t) {}

    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, Completion> &&
                 std::is_invocable_v<F &>)
    Completion(F f) : call_(&invoke<F>)
    {
        static_assert(sizeof(F) <= payloadBytes,
                      "a completion captures at most 16 bytes");
        static_assert(alignof(F) <= alignof(std::uint64_t),
                      "over-aligned completion capture");
        static_assert(std::is_trivially_copyable_v<F> &&
                          std::is_trivially_destructible_v<F>,
                      "completion captures must be trivially copyable");
        ::new (static_cast<void *>(payload_)) F(f);
    }

    explicit operator bool() const { return call_ != nullptr; }

    void operator()() { call_(payload_); }

  private:
    template <typename F>
    static void
    invoke(unsigned char *p)
    {
        (*std::launder(reinterpret_cast<F *>(p)))();
    }

    void (*call_)(unsigned char *) = nullptr;
    alignas(std::uint64_t) unsigned char payload_[payloadBytes]{};
};

static_assert(sizeof(Completion) == 24 &&
                  std::is_trivially_copyable_v<Completion>,
              "Completion must stay a 24-byte trivially copyable value");

/**
 * Anything a request can be sent to. Completion fires when the access
 * has been serviced (including all queuing below this device).
 */
class MemDevice
{
  public:
    virtual ~MemDevice() = default;

    virtual void access(const MemAccess &acc, Completion done) = 0;
};

} // namespace lazygpu

#endif // LAZYGPU_MEM_DEVICE_HH
