/// \file plot.hpp
/// \brief Terminal plotting: renders (x, y) series as an ASCII chart so the
/// bench binaries can show the paper's "figures" inline, without external
/// plotting tooling.
#pragma once

#include <string>
#include <vector>

namespace ppsim {

/// One named data series of an AsciiPlot.
struct PlotSeries {
    std::string name;
    char glyph = '*';
    std::vector<double> x;
    std::vector<double> y;
};

/// A simple scatter/line chart rendered with ASCII characters.
///
///   AsciiPlot plot;
///   plot.set_x_label("log2(n)");
///   plot.add_series({"pll", 'p', xs, ys});
///   std::cout << plot.render(70, 20);
///
/// Axes auto-scale to the data; an optional log2 transform supports the
/// scaling plots of the reproduction (time vs log n). Overlapping points
/// render the glyph of the later-added series.
class AsciiPlot {
public:
    /// Adds a series; x and y must be equally long and non-empty.
    void add_series(PlotSeries series);

    void set_title(std::string title) { title_ = std::move(title); }
    void set_x_label(std::string label) { x_label_ = std::move(label); }
    void set_y_label(std::string label) { y_label_ = std::move(label); }

    /// Plot x on a log2 axis (useful when x spans octaves of n).
    void set_log2_x(bool enabled) { log2_x_ = enabled; }

    /// Renders a width×height character canvas with axes, tick labels and a
    /// legend line per series.
    [[nodiscard]] std::string render(std::size_t width = 72, std::size_t height = 20) const;

private:
    std::vector<PlotSeries> series_;
    std::string title_;
    std::string x_label_ = "x";
    std::string y_label_ = "y";
    bool log2_x_ = false;
};

}  // namespace ppsim
