// Shared helpers for the figure/table reproduction harnesses.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.hpp"
#include "common/strfmt.hpp"
#include "core/report.hpp"

namespace dht::bench {

/// Prints `table` to stdout -- as CSV when the harness was invoked with
/// --csv (for replotting), aligned text otherwise.
inline void emit(const core::Table& table, int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--csv") {
      table.print_csv(std::cout);
      return;
    }
  }
  table.print(std::cout);
}

/// Percentages 0, 5, ..., 90 as failure probabilities (the x-axis of the
/// paper's Figs. 6 and 7(a)).
inline std::vector<double> paper_q_grid() {
  std::vector<double> qs;
  for (int percent = 0; percent <= 90; percent += 5) {
    qs.push_back(percent / 100.0);
  }
  return qs;
}

/// The harness's `--threads N` (0, also when the flag is absent, means
/// hardware concurrency), parsed strictly; a rejected value exits 1.
inline unsigned threads_flag(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--threads") {
      unsigned threads = 0;
      if (!common::parse_threads_flag(argv[0], argv[i + 1], threads)) {
        std::exit(1);
      }
      return threads;
    }
  }
  return 0;
}

/// Formats a probability as a percentage with one decimal.
inline std::string pct(double value) {
  return strfmt("%.1f", value * 100.0);
}

/// Formats a probability as a percentage with three decimals (for curves
/// that live close to 0 or 100%).
inline std::string pct3(double value) {
  return strfmt("%.3f", value * 100.0);
}

}  // namespace dht::bench
