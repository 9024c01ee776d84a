/**
 * @file
 * The Lazy Unit's load footprint (loadFootprint): the lane-group
 * classifier must agree exactly with the per-lane definition -- same
 * transactions in the same order, same per-register lane masks and
 * word counts, same encodability verdict -- on every load width and
 * every lane pattern, and must still reject a straddling word.
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "gpu/coalescer.hh"
#include "gpu/lazy_unit.hh"
#include "isa/encoding.hh"
#include "sim/rng.hh"

namespace lazygpu
{
namespace
{

using LaneAddrs = std::array<Addr, wavefrontSize>;

/** The per-lane definition: every lane's words, one lane at a time. */
bool
perLaneFootprint(Opcode op, const LaneAddrs &lane_addr,
                 std::vector<PendingLoad::Tx> &txs)
{
    const unsigned nregs = loadDstRegs(op);
    const unsigned bytes_per_word =
        std::min(loadBytes(op), maskGranularity);
    txs.clear();
    const auto txAt = [&](Addr ta) -> PendingLoad::Tx & {
        for (PendingLoad::Tx &tx : txs) {
            if (tx.addr == ta)
                return tx;
        }
        return txs.emplace_back(PendingLoad::Tx{ta});
    };
    for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
        for (unsigned r = 0; r < nregs; ++r) {
            const Addr wa = lane_addr[lane] + 4ull * r;
            EXPECT_EQ(txAlign(wa), txAlign(wa + bytes_per_word - 1))
                << "generator produced a straddling word";
            txAt(txAlign(wa)).words[r] |= LaneMask(1) << lane;
        }
    }
    for (PendingLoad::Tx &tx : txs)
        tx.unresolved = tx.wordCount();
    bool mixed = false;
    for (unsigned lane = 0; lane < wavefrontSize; ++lane)
        mixed |= upperBits(lane_addr[lane]) != upperBits(lane_addr[0]);
    return mixed;
}

constexpr Opcode loadOps[] = {Opcode::LoadByte, Opcode::LoadShort,
                              Opcode::LoadDword, Opcode::LoadDwordX2,
                              Opcode::LoadDwordX4};

enum class Pattern
{
    Uniform,        //!< one address for the group
    Stride,         //!< aligned unit-stride run
    MisalignedRun,  //!< unit-stride run off the lane-width alignment
    General,        //!< independent word-aligned lanes
    RepeatPrevious, //!< the previous group again (8-lane period)
    Count,
};

/** A word-aligned address near `region` (so groups share transactions). */
Addr
near(Rng &rng, Addr region, unsigned width)
{
    const Addr align = std::min(width, maskGranularity);
    return (region + rng.next() % 256) & ~(align - 1);
}

LaneAddrs
makeLanes(Rng &rng, Opcode op, Addr region)
{
    const unsigned width = loadBytes(op);
    LaneAddrs a{};
    for (unsigned g = 0; g < wavefrontSize; g += 8) {
        auto p = static_cast<Pattern>(
            rng.next() % static_cast<unsigned>(Pattern::Count));
        if (p == Pattern::RepeatPrevious && g == 0)
            p = Pattern::Stride;
        const Addr base = near(rng, region, width);
        for (unsigned i = 0; i < 8; ++i) {
            switch (p) {
              case Pattern::Uniform:
                a[g + i] = base;
                break;
              case Pattern::Stride:
                a[g + i] = (base & ~Addr(width - 1)) + i * width;
                break;
              case Pattern::MisalignedRun: {
                // Word-aligned but not lane-aligned: only multi-word
                // lanes can be (narrower lanes are one word).
                const Addr skew = width >= 8 ? 4 : 0;
                a[g + i] = (base & ~Addr(width - 1)) + skew + i * width;
                break;
              }
              case Pattern::General:
                a[g + i] = near(rng, region, width);
                break;
              case Pattern::RepeatPrevious:
                a[g + i] = a[g + i - 8];
                break;
              case Pattern::Count:
                break;
            }
        }
    }
    return a;
}

/** Compare both footprints of lanes; returns whether the lanes mix
 *  upper bits. */
bool
expectSameFootprint(Opcode op, const LaneAddrs &lanes)
{
    std::vector<PendingLoad::Tx> got, want;
    const bool got_mixed = loadFootprint(op, lanes, got);
    const bool want_mixed = perLaneFootprint(op, lanes, want);
    EXPECT_EQ(want_mixed, got_mixed);
    EXPECT_EQ(want.size(), got.size()) << opcodeName(op);
    for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
        EXPECT_EQ(want[i].addr, got[i].addr) << "tx " << i;
        EXPECT_EQ(want[i].words, got[i].words) << "tx " << i;
        EXPECT_EQ(want[i].unresolved, got[i].unresolved) << "tx " << i;
    }
    return want_mixed;
}

TEST(LoadFootprint, LaneGroupsAgreeWithPerLaneDefinition)
{
    Rng rng(2024);
    // Regions: ordinary heap, and one straddling an upper-bits boundary
    // so some waves mix upper bits (the eager fallback).
    const Addr boundary = Addr(1) << (offsetBits + lowerAddrBits);
    const Addr regions[] = {GlobalMemory::allocBase + 0x1000,
                            4 * boundary - 128};
    unsigned mixed = 0;
    for (unsigned iter = 0; iter < 4000; ++iter) {
        for (Opcode op : loadOps) {
            const Addr region = regions[iter % 2];
            SCOPED_TRACE(::testing::Message()
                         << opcodeName(op) << " iteration " << iter);
            mixed += expectSameFootprint(op, makeLanes(rng, op, region));
            if (::testing::Test::HasFailure())
                return;
        }
    }
    EXPECT_GT(mixed, 1000u) << "the boundary region should mix upper bits";
}

TEST(LoadFootprint, WholeWavePatterns)
{
    for (Opcode op : loadOps) {
        const unsigned width = loadBytes(op);
        LaneAddrs uniform{}, stride{}, period{};
        for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
            uniform[lane] = 0x10000040;
            stride[lane] = 0x10000100 + lane * width;
            // The im2col shape: every group repeats one 8-lane run.
            period[lane] = 0x10000200 + (lane % 8) * width;
        }
        expectSameFootprint(op, uniform);
        expectSameFootprint(op, stride);
        expectSameFootprint(op, period);
    }
    // A unit-stride dword run from one aligned block is one transaction
    // per eight lanes; the repeated run is one transaction in all.
    LaneAddrs period{};
    for (unsigned lane = 0; lane < wavefrontSize; ++lane)
        period[lane] = 0x10000200 + (lane % 8) * 4;
    std::vector<PendingLoad::Tx> txs;
    EXPECT_FALSE(loadFootprint(Opcode::LoadDword, period, txs));
    ASSERT_EQ(1u, txs.size());
    EXPECT_EQ(allLanes, txs[0].words[0]);
    EXPECT_EQ(64u, txs[0].unresolved);
}

TEST(LoadFootprintDeath, StraddlingWordPanics)
{
    // One straddling lane inside an otherwise aligned wave, and a whole
    // group broadcasting a straddling address.
    LaneAddrs one{}, group{};
    for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
        one[lane] = 0x10000000 + lane * 4;
        group[lane] = 0x10000000;
    }
    one[13] = 0x1000001e;
    for (unsigned lane = 16; lane < 24; ++lane)
        group[lane] = 0x1000003e;
    std::vector<PendingLoad::Tx> txs;
    EXPECT_DEATH(loadFootprint(Opcode::LoadDword, one, txs), "straddles");
    EXPECT_DEATH(loadFootprint(Opcode::LoadDwordX4, group, txs),
                 "straddles");
}

} // namespace
} // namespace lazygpu
