/// \file table.hpp
/// \brief ASCII table renderer: the bench binaries print paper-style tables
/// (Table 1/2/3 reproductions) through this formatter.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ppsim {

/// Column alignment within a rendered table.
enum class Align { left, right };

/// A simple fixed-schema ASCII table. Columns are declared once; rows are
/// appended as vectors of pre-formatted cells. Rendering pads each column to
/// its widest cell and draws a header rule, e.g.
///
///   protocol    | states | time (par.)
///   ------------+--------+------------
///   angluin06   |      2 |      512.31
///   pll         |    904 |       14.02
class TextTable {
public:
    /// Declares a column. All columns must be declared before any row.
    void add_column(std::string heading, Align align = Align::right);

    /// Appends a row; must have exactly one cell per declared column.
    void add_row(std::vector<std::string> cells);

    /// Appends a horizontal separator row.
    void add_separator();

    /// Renders the table with an optional title line above it.
    [[nodiscard]] std::string render(std::string_view title = {}) const;

private:
    struct Row {
        bool separator = false;
        std::vector<std::string> cells;
    };
    std::vector<std::string> headings_;
    std::vector<Align> aligns_;
    std::vector<Row> rows_;
};

/// Formats a double with `digits` places after the decimal point.
[[nodiscard]] std::string format_double(double value, int digits = 2);

/// Formats a double in scientific-ish compact form (e.g. for probabilities).
[[nodiscard]] std::string format_probability(double value);

/// Formats `value ± half_width`.
[[nodiscard]] std::string format_with_ci(double value, double half_width, int digits = 2);

}  // namespace ppsim
