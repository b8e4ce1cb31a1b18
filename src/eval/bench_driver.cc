#include "eval/bench_driver.h"

#include <iostream>
#include <stdexcept>
#include <string>

#include "common/flags.h"
#include "common/table.h"
#include "eval/serialize.h"

namespace jf::eval {

int sweep_bench_main(int argc, char** argv, std::string_view banner,
                     std::string_view default_scenario_path,
                     const BenchEpilogue& epilogue) {
  std::string path(default_scenario_path);
  bool path_given = false;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": error: --threads needs a value\n";
        return 2;
      }
      try {
        threads = int_flag(arg, argv[++i], 0);
      } catch (const std::invalid_argument& e) {
        std::cerr << argv[0] << ": error: " << e.what() << "\n";
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0] << " [scenario.json] [--threads N]\n"
                << "default scenario: " << default_scenario_path << "\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << argv[0] << ": error: unknown option '" << arg << "'\n";
      return 2;
    } else if (path_given) {
      std::cerr << argv[0] << ": error: unexpected argument '" << arg << "'\n";
      return 2;
    } else {
      path = arg;
      path_given = true;
    }
  }

  try {
    SweepSpec spec = load_sweep_file(path);
    print_banner(std::cout, std::string(banner));
    auto progress = [](int done, int total, const SweepPointResult& point, double secs) {
      std::cerr << "  [" << done << "/" << total << "] " << point.label << "  ("
                << point.report.samples.size() << " samples, " << secs << "s)\n";
    };
    SweepReport report = run_sweep(spec, {.threads = threads}, progress);
    Table table = report.to_table();
    table.print(std::cout);
    table.print_csv(std::cout);
    if (epilogue) epilogue(report, std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace jf::eval
