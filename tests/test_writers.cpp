// Unit tests for the output writers: JSON builder and ASCII tables.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/common.hpp"
#include "core/json.hpp"
#include "core/table.hpp"

namespace ppsim {
namespace {

std::string temp_path(const std::string& name) {
    return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Json, ScalarsSerialise) {
    EXPECT_EQ(JsonValue(nullptr).dump(), "null");
    EXPECT_EQ(JsonValue(true).dump(), "true");
    EXPECT_EQ(JsonValue(false).dump(), "false");
    EXPECT_EQ(JsonValue(42).dump(), "42");
    EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
    EXPECT_EQ(JsonValue(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
    EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, EscapesStrings) {
    const std::string dumped = JsonValue("a\"b\\c\nd\te").dump();
    EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\"");
}

TEST(Json, ObjectsPreserveInsertionOrder) {
    JsonValue obj = JsonValue::object();
    obj.set("zeta", 1).set("alpha", 2);
    const std::string dumped = obj.dump();
    EXPECT_LT(dumped.find("zeta"), dumped.find("alpha"));
}

TEST(Json, NestedStructuresRoundTripTextually) {
    JsonValue root = JsonValue::object();
    root["config"]["n"] = 128;
    root["points"].push_back(JsonValue(1.5));
    root["points"].push_back(JsonValue(2.5));
    const std::string dumped = root.dump();
    EXPECT_NE(dumped.find("\"config\""), std::string::npos);
    EXPECT_NE(dumped.find("\"n\": 128"), std::string::npos);
    EXPECT_NE(dumped.find("1.5"), std::string::npos);
}

TEST(Json, TypeMisuseThrows) {
    JsonValue arr = JsonValue::array();
    EXPECT_THROW(arr["key"] = 1, InvalidArgument);
    JsonValue obj = JsonValue::object();
    EXPECT_THROW(obj.push_back(JsonValue(1)), InvalidArgument);
}

TEST(Json, WritesFileAtomically) {
    const std::string path = temp_path("ppsim_json_test.json");
    JsonValue root = JsonValue::object();
    root.set("ok", true);
    write_json_file(path, root);
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_NE(buffer.str().find("\"ok\": true"), std::string::npos);
    std::filesystem::remove(path);
}

TEST(TextTable, RendersAlignedColumns) {
    TextTable table;
    table.add_column("name", Align::left);
    table.add_column("value");
    table.add_row({"x", "1"});
    table.add_row({"longer", "23"});
    const std::string out = table.render("My table");
    EXPECT_NE(out.find("My table"), std::string::npos);
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Right-aligned numeric column: "1" should be padded on the left.
    EXPECT_NE(out.find(" 1 "), std::string::npos);
}

TEST(TextTable, EnforcesSchema) {
    TextTable table;
    table.add_column("a");
    EXPECT_THROW(table.add_row({"1", "2"}), InvalidArgument);
    table.add_row({"1"});
    EXPECT_THROW(table.add_column("late"), InvalidArgument);
}

TEST(TextTable, SeparatorsRender) {
    TextTable table;
    table.add_column("v");
    table.add_row({"1"});
    table.add_separator();
    table.add_row({"2"});
    const std::string out = table.render();
    // Two rule lines: one under the header, one explicit separator.
    std::size_t rules = 0;
    std::istringstream stream(out);
    std::string line;
    while (std::getline(stream, line)) {
        if (!line.empty() && line.find_first_not_of("-+") == std::string::npos) ++rules;
    }
    EXPECT_EQ(rules, 2U);
}

TEST(Formatting, Doubles) {
    EXPECT_EQ(format_double(3.14159, 2), "3.14");
    EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN()), "n/a");
    EXPECT_EQ(format_probability(0.0), "0");
    EXPECT_EQ(format_probability(0.25), "0.2500");
    EXPECT_EQ(format_probability(1e-9), "1.00e-09");
    EXPECT_EQ(format_with_ci(2.0, 0.5, 1), "2.0 ± 0.5");
}

}  // namespace
}  // namespace ppsim
