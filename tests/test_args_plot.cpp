// Tests for the CLI argument parser (core/args.hpp) and the ASCII plot
// renderer (core/plot.hpp).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/args.hpp"
#include "core/plot.hpp"

namespace ppsim {
namespace {

ArgParser declared_parser() {
    ArgParser args;
    args.declare("n", "population size", "1024");
    args.declare("protocol", "protocol name", "pll");
    args.declare("verbose", "chatty output");
    args.declare("factor", "budget factor", "2.5");
    return args;
}

TEST(ArgParser, ParsesSpaceAndEqualsForms) {
    ArgParser args = declared_parser();
    const std::array<const char*, 5> argv{"prog", "--n", "256", "--protocol=lottery",
                                          "--verbose"};
    args.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(args.get_u64("n", 0), 256U);
    EXPECT_EQ(args.get_string("protocol", ""), "lottery");
    EXPECT_TRUE(args.get_bool("verbose", false));
    EXPECT_TRUE(args.has("n"));
    EXPECT_FALSE(args.has("factor"));
    EXPECT_EQ(args.given(), (std::vector<std::string>{"n", "protocol", "verbose"}));
}

TEST(ArgParser, DefaultsApplyWhenAbsent) {
    ArgParser args = declared_parser();
    const std::array<const char*, 1> argv{"prog"};
    args.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(args.get_u64("n", 1024), 1024U);
    EXPECT_DOUBLE_EQ(args.get_double("factor", 2.5), 2.5);
    EXPECT_FALSE(args.get_bool("verbose", false));
}

TEST(ArgParser, RejectsUnknownAndMalformedFlags) {
    {
        ArgParser args = declared_parser();
        const std::array<const char*, 2> argv{"prog", "--bogus"};
        EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
                     InvalidArgument);
    }
    {
        ArgParser args = declared_parser();
        const std::array<const char*, 2> argv{"prog", "positional"};
        EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
                     InvalidArgument);
    }
}

TEST(ArgParser, TypedAccessorsValidate) {
    ArgParser args = declared_parser();
    const std::array<const char*, 3> argv{"prog", "--n", "not_a_number"};
    args.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_THROW((void)args.get_u64("n", 0), InvalidArgument);
    EXPECT_THROW((void)args.get_double("n", 0.0), InvalidArgument);

    // The whole value must parse: no partial parses, no sign wrap-around.
    const auto value_of = [](const char* value) {
        ArgParser parsed = declared_parser();
        const std::array<const char*, 3> flag{"prog", "--n", value};
        parsed.parse(static_cast<int>(flag.size()), flag.data());
        return parsed;
    };
    for (const char* bad : {"-1", "64x", "2.5", "+7", " 8", "", "18446744073709551616"}) {
        EXPECT_THROW((void)value_of(bad).get_u64("n", 0), InvalidArgument)
            << "'" << bad << "'";
    }
    for (const char* bad : {"2.5x", "1e", "nan", "inf", ""}) {
        EXPECT_THROW((void)value_of(bad).get_double("n", 0.0), InvalidArgument)
            << "'" << bad << "'";
    }
    try {
        (void)value_of("-1").get_u64("n", 0);
        ADD_FAILURE() << "a negative unsigned value was accepted";
    } catch (const InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos) << e.what();
    }
    EXPECT_EQ(value_of("18446744073709551615").get_u64("n", 0),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_DOUBLE_EQ(value_of("-2.5e1").get_double("n", 0.0), -25.0);
}

TEST(ArgParser, UsageListsDeclaredFlags) {
    const ArgParser args = declared_parser();
    const std::string usage = args.usage("tool");
    EXPECT_NE(usage.find("--n"), std::string::npos);
    EXPECT_NE(usage.find("population size"), std::string::npos);
    EXPECT_NE(usage.find("default: 1024"), std::string::npos);
}

TEST(AsciiPlot, RendersSeriesGlyphs) {
    AsciiPlot plot;
    plot.set_title("test plot");
    plot.set_x_label("n");
    plot.set_y_label("time");
    plot.add_series({"up", 'u', {1, 2, 3, 4}, {1, 2, 3, 4}});
    plot.add_series({"down", 'd', {1, 2, 3, 4}, {4, 3, 2, 1}});
    const std::string out = plot.render(40, 10);
    EXPECT_NE(out.find("test plot"), std::string::npos);
    EXPECT_NE(out.find('u'), std::string::npos);
    EXPECT_NE(out.find('d'), std::string::npos);
    EXPECT_NE(out.find("u = up"), std::string::npos);
    EXPECT_NE(out.find("[y: time]"), std::string::npos);
}

TEST(AsciiPlot, Log2AxisAndDegenerateRanges) {
    AsciiPlot plot;
    plot.set_log2_x(true);
    plot.add_series({"flat", 'f', {64, 128, 256}, {5, 5, 5}});
    const std::string out = plot.render(30, 6);
    EXPECT_NE(out.find("(log2 axis)"), std::string::npos);
    EXPECT_NE(out.find('f'), std::string::npos);
}

TEST(AsciiPlot, ValidatesInput) {
    AsciiPlot plot;
    EXPECT_THROW(plot.add_series({"bad", 'b', {1, 2}, {1}}), InvalidArgument);
    EXPECT_THROW(plot.add_series({"empty", 'e', {}, {}}), InvalidArgument);
    EXPECT_THROW((void)plot.render(10, 2), InvalidArgument);
    plot.add_series({"ok", 'o', {1}, {1}});
    EXPECT_NO_THROW((void)plot.render(40, 10));
}

}  // namespace
}  // namespace ppsim
