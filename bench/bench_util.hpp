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

/// A harness's command line: `--csv` prints its tables as CSV (for
/// replotting) instead of aligned text, and, in a harness that takes it,
/// `--threads N` picks the worker count (0, also when the flag is absent,
/// means hardware concurrency; results never depend on it).
struct Flags {
  bool csv = false;
  unsigned threads = 0;
};

/// Parses the harness flags strictly: any other argument -- --threads too,
/// unless `takes_threads` -- or --threads with no value or a rejected one,
/// is named on stderr and exits 1.
inline Flags parse_flags(int argc, char** argv, bool takes_threads = false) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--csv") {
      flags.csv = true;
    } else if (takes_threads && arg == "--threads" && i + 1 < argc) {
      if (!common::parse_threads_flag(argv[0], argv[++i], flags.threads)) {
        std::exit(1);
      }
    } else {
      std::cerr << argv[0] << ": "
                << (takes_threads && arg == "--threads"
                        ? "missing value for flag "
                        : "unknown argument ")
                << arg << "\n";
      std::exit(1);
    }
  }
  return flags;
}

/// Prints `table` to stdout, as CSV under --csv.
inline void emit(const core::Table& table, const Flags& flags) {
  if (flags.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
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
