// Unit tests for schedulers (src/core/scheduler.hpp): the uniformly random
// scheduler's distribution, recorded schedules and the recording adaptor.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/scheduler.hpp"

namespace ppsim {
namespace {

TEST(UniformScheduler, RejectsDegeneratePopulations) {
    EXPECT_THROW(UniformScheduler(0, 1), InvalidArgument);
    EXPECT_THROW(UniformScheduler(1, 1), InvalidArgument);
    EXPECT_NO_THROW(UniformScheduler(2, 1));
    // Agent ids are 32-bit: 2^32 − 1 agents is the ceiling, and the
    // scheduler allocates nothing, so both sides of it are cheap to try.
    EXPECT_NO_THROW(UniformScheduler(max_agent_population, 1));
    EXPECT_THROW(UniformScheduler(max_agent_population + 1, 1), InvalidArgument);

    UniformScheduler scheduler(8, 1);
    EXPECT_THROW(scheduler.set_population_size(1), InvalidArgument);
    EXPECT_THROW(scheduler.set_population_size(max_agent_population + 1),
                 InvalidArgument);
    EXPECT_EQ(scheduler.population_size(), 8U);
    scheduler.set_population_size(2);
    for (int i = 0; i < 16; ++i) {
        const Interaction pair = scheduler.next();
        EXPECT_EQ(pair.initiator + pair.responder, 1U);
    }
}

TEST(UniformScheduler, ProducesDistinctAgentsInRange) {
    UniformScheduler scheduler(5, 42);
    for (int i = 0; i < 10000; ++i) {
        const Interaction ia = scheduler.next();
        EXPECT_LT(ia.initiator, 5U);
        EXPECT_LT(ia.responder, 5U);
        EXPECT_NE(ia.initiator, ia.responder);
    }
}

TEST(UniformScheduler, EqualSeedsGiveEqualSchedules) {
    UniformScheduler a(10, 7);
    UniformScheduler b(10, 7);
    for (int i = 0; i < 1000; ++i) {
        const Interaction ia = a.next();
        const Interaction ib = b.next();
        EXPECT_EQ(ia, ib);
    }
}

// The model requires every ordered pair (u, v), u != v, with probability
// 1/(n(n−1)). Check all 12 ordered pairs of n = 4 stay within 10% of uniform
// over a large sample — this is what makes the role-based coin flips of PLL
// fair, so it deserves a direct test.
TEST(UniformScheduler, OrderedPairsAreUniform) {
    const std::size_t n = 4;
    UniformScheduler scheduler(n, 1234);
    std::map<std::pair<AgentId, AgentId>, int> counts;
    const int trials = 240000;
    for (int i = 0; i < trials; ++i) {
        const Interaction ia = scheduler.next();
        ++counts[{ia.initiator, ia.responder}];
    }
    EXPECT_EQ(counts.size(), n * (n - 1));
    const double expected = static_cast<double>(trials) / (n * (n - 1));
    for (const auto& [pair, count] : counts) {
        EXPECT_NEAR(count, expected, 0.1 * expected)
            << "pair (" << pair.first << "," << pair.second << ")";
    }
}

// Both orderings of each unordered pair must be equally likely: this is the
// initiator-coin fairness property (§3.1.1 of the paper).
TEST(UniformScheduler, RolesWithinPairsAreFair) {
    const std::size_t n = 6;
    UniformScheduler scheduler(n, 99);
    int forward = 0;
    int backward = 0;
    for (int i = 0; i < 200000; ++i) {
        const Interaction ia = scheduler.next();
        if (ia.initiator == 0 && ia.responder == 1) ++forward;
        if (ia.initiator == 1 && ia.responder == 0) ++backward;
    }
    const double total = forward + backward;
    ASSERT_GT(total, 0);
    EXPECT_NEAR(forward / total, 0.5, 0.05);
}

// next() finds the initiator ⌊r/(n−1)⌋ of the draw r in [0, n(n−1)) with a
// multiply, not a division. Check each pair against the division on a copy
// of the stream, at both ends of the population range: the golden seeds all
// run at n = 128, while the identity has least room to spare near 2^32.
TEST(UniformScheduler, PairsEqualTheQuotientAndRemainderOfOneDraw) {
    const std::uint64_t sizes[] = {2, 3, 4096, (std::uint64_t{1} << 31U) + 1,
                                   max_agent_population};
    for (const std::uint64_t n : sizes) {
        UniformScheduler scheduler(n, 2019 + n);
        Rng stream = scheduler.rng();
        int mismatches = 0;
        for (int i = 0; i < 100000; ++i) {
            const std::uint64_t r = uniform_below(stream, n * (n - 1));
            const auto initiator = static_cast<AgentId>(r / (n - 1));
            auto responder = static_cast<AgentId>(r % (n - 1));
            if (responder >= initiator) ++responder;
            const Interaction pair = scheduler.next();
            if (pair != Interaction{initiator, responder} && ++mismatches <= 3) {
                ADD_FAILURE() << "n = " << n << ", draw " << i << ": next() gave ("
                              << pair.initiator << ", " << pair.responder << "), division ("
                              << initiator << ", " << responder << ")";
            }
        }
        EXPECT_EQ(mismatches, 0) << "n = " << n;
        // Both consumed the same words, so the streams end in step.
        EXPECT_EQ(scheduler.rng().state(), stream.state()) << "n = " << n;
    }
}

TEST(RecordedSchedule, AppendsAndIndexes) {
    RecordedSchedule schedule;
    EXPECT_TRUE(schedule.empty());
    schedule.append(0, 1);
    schedule.append(Interaction{2, 3});
    EXPECT_EQ(schedule.size(), 2U);
    EXPECT_EQ(schedule[0], (Interaction{0, 1}));
    EXPECT_EQ(schedule[1], (Interaction{2, 3}));
}

TEST(RecordedSchedule, ValidateRejectsBadSchedules) {
    RecordedSchedule self_loop;
    self_loop.append(1, 1);
    EXPECT_THROW(self_loop.validate(4), InvalidArgument);

    RecordedSchedule out_of_range;
    out_of_range.append(0, 9);
    EXPECT_THROW(out_of_range.validate(4), InvalidArgument);

    RecordedSchedule good;
    good.append(0, 3);
    EXPECT_NO_THROW(good.validate(4));
}

TEST(RecordedSchedule, ValidateCoversEveryErrorPath) {
    // Out-of-range initiator (not just responder).
    RecordedSchedule bad_initiator;
    bad_initiator.append(7, 1);
    EXPECT_THROW(bad_initiator.validate(4), InvalidArgument);

    // The reported step index names the offending entry, not just the fact.
    RecordedSchedule late_error;
    late_error.append(0, 1);
    late_error.append(1, 2);
    late_error.append(3, 3);  // self-interaction at step 2
    try {
        late_error.validate(4);
        FAIL() << "validate accepted a self-interaction";
    } catch (const InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find("step 2"), std::string::npos)
            << "message was: " << e.what();
    }

    // An id equal to n is out of range (ids are 0-based).
    RecordedSchedule boundary;
    boundary.append(0, 4);
    EXPECT_THROW(boundary.validate(4), InvalidArgument);

    // The empty schedule is trivially valid, for any population.
    EXPECT_NO_THROW(RecordedSchedule{}.validate(2));

    // A schedule valid for a large population can be invalid for a smaller one.
    RecordedSchedule shrunk;
    shrunk.append(0, 5);
    EXPECT_NO_THROW(shrunk.validate(8));
    EXPECT_THROW(shrunk.validate(4), InvalidArgument);
}

TEST(RecordingScheduler, CapturesForwardedInteractions) {
    RecordingScheduler<UniformScheduler> recording(UniformScheduler(8, 3));
    std::vector<Interaction> drawn;
    for (int i = 0; i < 50; ++i) drawn.push_back(recording.next());
    ASSERT_EQ(recording.record().size(), drawn.size());
    for (std::size_t i = 0; i < drawn.size(); ++i) {
        EXPECT_EQ(recording.record()[i], drawn[i]);
    }
    // Recording does not perturb the forwarded stream.
    UniformScheduler fresh(8, 3);
    for (const Interaction& ia : recording.record().view()) EXPECT_EQ(fresh.next(), ia);
}

}  // namespace
}  // namespace ppsim
