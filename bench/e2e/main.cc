// bench_e2e — six-workload end-to-end benchmark with per-layer attribution.
//
//   bench_e2e [--seed S] [--repeats N | --seconds T] [--workload W]...
//             [--trace 0|1] [--trace-dir DIR] [--work-dir DIR] [--out FILE]
//             [--git-sha SHA]
//   bench_e2e compare BASE.json CAND.json
//
// Every (repeat, workload) run is a fresh child process (`bench_e2e
// --run-one W`), forked and waited for one at a time, so each run has its
// own CPU time (from wait4) and peak RSS (the child's VmHWM), and a crash is
// a failed run rather than a dead benchmark. Repeats go round-robin across
// workloads, so slow drift of the host hits every workload alike. After the
// timed repeats each workload runs once more traced (`--trace 1`, the
// default), which yields the per-layer metrics, the exact `work` counts,
// and the <workload>.trace.json / <workload>.metrics.json files in
// --trace-dir. At a --seed other than 1, each workload also runs once,
// untimed, at seed 1 against the committed digest.
//
// Prints `workload metric median max n unit` for every metric, then one JSON
// line: {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// medians (--trace 0) or the per-layer values (--trace 1), keyed by metric
// name when one workload ran and "<workload>.<metric>" otherwise. --out
// writes a schema-v1 perf record with one point per workload. Exits 1 when
// any run failed: it crashed, threw, or broke a digest identity (repeats and
// the traced run byte-identical, sim_sharded equal to sim_serial, and every
// seed-1 run equal to the committed digest).
#include <sys/resource.h>
#include <sys/vfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "../bench_util.h"
#include "common/fs.h"
#include "common/json.h"
#include "e2e.h"
#include "obs/perfrec.h"
#include "store/result_store.h"

namespace {

using namespace jf;
using namespace jf::e2e;
namespace fs = std::filesystem;

// With --seconds, rounds continue until the time is spent, but never fewer
// than this, so a median and quartiles exist even for the slowest workload.
constexpr int kMinRounds = 3;

struct Options {
  std::uint64_t seed = 1;
  int repeats = 5;
  double seconds = 0.0;  // > 0 selects time-bounded rounds over --repeats
  std::vector<const Workload*> workloads;
  bool trace = true;
  fs::path trace_dir;
  fs::path work_dir = JF_E2E_WORK_DIR;
  std::string out;
  std::string git_sha;
};

int usage(std::ostream& os, int code) {
  os << "usage: bench_e2e [--seed S] [--repeats N | --seconds T] [--workload W]...\n"
        "                 [--trace 0|1] [--trace-dir DIR] [--work-dir DIR] [--out FILE]\n"
        "                 [--git-sha SHA]\n"
        "       bench_e2e compare BASE.json CAND.json\n"
        "\n"
        "  --seed S       rebase every workload's seed list to start at S (default 1;\n"
        "                 at 1 the report digests must match the committed ones)\n"
        "  --repeats N    timed runs per workload, round-robin (default 5)\n"
        "  --seconds T    instead: rounds until T seconds are spent (at least 3)\n"
        "  --workload W   run only W (repeatable; default all six)\n"
        "  --trace 0|1    one extra traced run per workload for the per-layer\n"
        "                 metrics and the work counts (default 1)\n"
        "  --trace-dir D  where <workload>.trace.json / .metrics.json go\n"
        "                 (default WORK/trace)\n"
        "  --work-dir D   result stores and child result files (default: in the\n"
        "                 build directory; tmpfs makes sweep_resume steadier)\n"
        "  --out FILE     write the schema-v1 perf record\n"
        "  --git-sha SHA  commit stamped into the record (default $JF_GIT_SHA)\n"
        "compare: one verdict per (workload, end-to-end metric) under the bounds\n"
        "  in BENCHMARK.json; exits 1 on a regression or any work-count drift.\n";
  return code;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--repeats") {
      o.repeats = std::stoi(value());
      if (o.repeats < 1) throw std::invalid_argument("--repeats needs a value >= 1");
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
      if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds needs a value > 0");
    } else if (arg == "--workload") {
      o.workloads.push_back(&find_workload(value()));
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--trace-dir") {
      o.trace_dir = value();
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--out") {
      o.out = value();
    } else if (arg == "--git-sha") {
      o.git_sha = value();
    } else {
      throw std::invalid_argument("unknown option '" + arg + "'");
    }
  }
  if (o.workloads.empty()) {
    for (const Workload& w : workloads()) o.workloads.push_back(&w);
  }
  if (o.trace_dir.empty()) o.trace_dir = o.work_dir / "trace";
  return o;
}

// One finished child process.
struct ChildRun {
  bool ok = false;
  double cpu_s = 0.0;
  json::Value result;  // the child's result file; null when the run failed

  const std::string& digest(const char* key) const { return result.find(key)->as_string(); }
  double number(const char* key) const { return result.find(key)->as_number(); }
};

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

ChildRun spawn_child(const std::vector<std::string>& args, const fs::path& result_path) {
  std::error_code ec;
  fs::remove(result_path, ec);
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  ChildRun run;
  run.cpu_s = seconds_of(ru.ru_utime) + seconds_of(ru.ru_stime);
  if (WIFSIGNALED(status)) {
    std::cerr << "bench_e2e: " << args[2] << ": child killed by signal " << WTERMSIG(status)
              << "\n";
    return run;
  }
  if (WEXITSTATUS(status) != 0) {
    std::cerr << "bench_e2e: " << args[2] << ": child exited " << WEXITSTATUS(status) << "\n";
    return run;
  }
  run.result = json::Value::parse(common::read_file(result_path));
  run.ok = true;
  return run;
}

// Everything one invocation measured for one workload.
struct WorkloadRuns {
  const Workload* w = nullptr;
  std::vector<ChildRun> timed;
  std::optional<ChildRun> traced;
  // At a --seed other than 1, one untimed run at seed 1, so that every
  // invocation checks the computed results against the committed digest.
  std::optional<ChildRun> reference;

  // The runs at --seed, which must all produce the same report.
  std::vector<ChildRun*> at_seed() {
    std::vector<ChildRun*> runs;
    for (ChildRun& r : timed) runs.push_back(&r);
    if (traced) runs.push_back(&*traced);
    return runs;
  }
  int attempted() const {
    return static_cast<int>(timed.size()) + (traced ? 1 : 0) + (reference ? 1 : 0);
  }
  int failed() {
    int n = reference && !reference->ok ? 1 : 0;
    for (ChildRun* r : at_seed()) n += r->ok ? 0 : 1;
    return n;
  }
  // Samples of one end-to-end metric over the successful timed runs.
  std::vector<double> samples(const std::string& metric) const {
    std::vector<double> xs;
    for (const ChildRun& r : timed) {
      if (!r.ok) continue;
      xs.push_back(metric == "cpu_s" ? r.cpu_s : r.number(metric.c_str()));
    }
    return xs;
  }
};

void fail_run(ChildRun& run, const Workload& w, const std::string& why) {
  std::cerr << "bench_e2e: " << w.name << ": run failed: " << why << "\n";
  run.ok = false;
}

// The digest identities; a run that breaks one is a failed run.
void check_digests(std::vector<WorkloadRuns>& all, std::uint64_t seed) {
  auto check_committed = [](ChildRun& run, const Workload& w) {
    if (run.ok && run.digest("result_sha256") != w.seed1_digest) {
      fail_run(run, w,
               "result digest " + run.digest("result_sha256") + " != committed seed-1 digest " +
                   w.seed1_digest);
    }
  };
  const ChildRun* serial = nullptr;
  for (WorkloadRuns& wr : all) {
    const ChildRun* first = nullptr;
    for (ChildRun* run : wr.at_seed()) {
      if (!run->ok) continue;
      if (first == nullptr) {
        first = run;
      } else if (run->digest("report_sha256") != first->digest("report_sha256")) {
        fail_run(*run, *wr.w, "report differs from the first run's");
        continue;
      }
      if (seed == 1) check_committed(*run, *wr.w);
    }
    if (wr.reference) check_committed(*wr.reference, *wr.w);
    if (std::string_view(wr.w->name) == "sim_serial") serial = first;
  }
  if (serial == nullptr) return;
  for (WorkloadRuns& wr : all) {
    if (std::string_view(wr.w->name) != "sim_sharded") continue;
    for (ChildRun* run : wr.at_seed()) {
      if (run->ok && run->digest("result_sha256") != serial->digest("result_sha256")) {
        fail_run(*run, *wr.w, "samples differ from sim_serial's");
      }
    }
  }
}

// The spec keeping every other seed (indices 0, 2, 4, ...): the cells a
// store-backed workload's template store holds before each run.
eval::SweepSpec template_spec(const eval::SweepSpec& spec) {
  eval::SweepSpec half = spec;
  half.base.seeds.clear();
  for (std::size_t i = 0; i < spec.base.seeds.size(); i += 2) {
    half.base.seeds.push_back(spec.base.seeds[i]);
  }
  return half;
}

// A template result store holding every other seed's cells, built in
// process; returns the seconds it took.
double prepare_template(const Workload& w, std::uint64_t seed, const fs::path& dir) {
  fs::remove_all(dir);
  obs::WallTimer timer;
  store::ResultStore store(dir);
  eval::EngineOptions opts;
  opts.threads = kThreads;
  opts.store = &store;
  eval::run_sweep(template_spec(load_workload(w, seed)), opts);
  return timer.seconds();
}

std::string filesystem_kind(const fs::path& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  return st.f_type == 0x01021994 ? "tmpfs" : "disk";  // TMPFS_MAGIC
}

double max_of(const std::vector<double>& xs) {
  double m = 0.0;
  for (double x : xs) m = std::max(m, x);
  return m;
}

void print_row(const std::string& workload, const std::string& metric, double median,
               double max, int n, const std::string& unit) {
  std::printf("%-17s %-22s %14.6g %14.6g %3d %s\n", workload.c_str(), metric.c_str(), median,
              max, n, unit.c_str());
}

// Per-layer values of the traced run, plus trace_overhead_pct.
json::Object layers_of(const WorkloadRuns& wr) {
  json::Object layers = wr.traced->result.find("layers")->as_object();
  const double untraced = quartiles(wr.samples("run_s"))[1];
  const double traced = wr.traced->number("run_s");
  layers.emplace_back("trace_overhead_pct",
                      untraced > 0.0 ? 100.0 * (traced / untraced - 1.0) : 0.0);
  return layers;
}

double layer_value(const json::Object& layers, const char* name) {
  for (const auto& [k, v] : layers) {
    if (k == name) return v.as_number();
  }
  return 0.0;
}

int run_bench(const Options& o) {
  fs::create_directories(o.work_dir);
  fs::create_directories(o.trace_dir);
  const fs::path result_path = o.work_dir / "result.json";
  obs::PerfRecorder rec("bench_e2e", obs::current_fingerprint(bench::resolve_git_sha(o.git_sha)));
  rec.set_meta("seed", json::Value(o.seed));
  rec.set_meta("threads", json::Value(kThreads));
  rec.set_meta("work_dir_fs", json::Value(filesystem_kind(o.work_dir)));

  // Template stores, rebuilt by every invocation under fixed names, so
  // repeated invocations with many seeds leave one set behind.
  auto template_dir = [&](const Workload& w, std::uint64_t seed) {
    return o.work_dir / (std::string(w.name) + (seed == o.seed ? ".template" : ".reference"));
  };
  for (const Workload* w : o.workloads) {
    if (!w->uses_store) continue;
    const double secs = prepare_template(*w, o.seed, template_dir(*w, o.seed));
    rec.set_meta(std::string(w->name) + ".template_s", json::Value(secs));
    if (o.seed != 1) prepare_template(*w, 1, template_dir(*w, 1));
  }

  std::vector<WorkloadRuns> all;
  for (const Workload* w : o.workloads) all.push_back({w, {}, {}, {}});
  // A run's arguments; store-backed workloads get a fresh copy of their
  // template first (untimed).
  auto run_once = [&](WorkloadRuns& wr, std::uint64_t seed, bool traced) {
    std::vector<std::string> args = {"bench_e2e", "--run-one", wr.w->name, "--seed",
                                     std::to_string(seed), "--result", result_path.string()};
    if (wr.w->uses_store) {
      const fs::path store = o.work_dir / (std::string(wr.w->name) + ".store");
      fs::remove_all(store);
      fs::copy(template_dir(*wr.w, seed), store, fs::copy_options::recursive);
      args.insert(args.end(), {"--store", store.string()});
    }
    if (traced) args.insert(args.end(), {"--trace-dir", o.trace_dir.string()});
    return spawn_child(args, result_path);
  };

  obs::WallTimer clock;
  int rounds = 0;
  while (o.seconds > 0.0 ? rounds < kMinRounds || clock.seconds() < o.seconds
                         : rounds < o.repeats) {
    for (WorkloadRuns& wr : all) wr.timed.push_back(run_once(wr, o.seed, false));
    ++rounds;
  }
  rec.set_meta("rounds", json::Value(rounds));
  if (o.trace) {
    for (WorkloadRuns& wr : all) wr.traced = run_once(wr, o.seed, true);
  }
  if (o.seed != 1) {
    for (WorkloadRuns& wr : all) wr.reference = run_once(wr, 1, false);
  }
  check_digests(all, o.seed);

  std::printf("%-17s %-22s %14s %14s %3s %s\n", "workload", "metric", "median", "max", "n",
              "unit");
  int attempted = 0, failed = 0;
  const bool one = all.size() == 1;
  json::Object line_metrics;
  auto add_line_metric = [&](const WorkloadRuns& wr, const std::string& metric, double v,
                             const char* unit) {
    json::Object m = {{"value", json::Value(v)}, {"unit", json::Value(unit)}};
    line_metrics.emplace_back(one ? metric : std::string(wr.w->name) + "." + metric,
                              json::Value(std::move(m)));
  };
  for (WorkloadRuns& wr : all) {
    attempted += wr.attempted();
    failed += wr.failed();
    json::Object params;
    params.emplace_back("workload", wr.w->name);
    params.emplace_back("seed", o.seed);
    params.emplace_back("threads", kThreads);
    obs::PerfPoint& point = rec.add_point(wr.w->name, std::move(params));
    json::Object samples;
    for (const MetricDef& m : e2e_metrics()) {
      const std::vector<double> xs = wr.samples(m.name);
      const double median = quartiles(xs)[1];
      print_row(wr.w->name, m.name, median, max_of(xs), static_cast<int>(xs.size()), m.unit);
      if (!o.trace && !xs.empty()) add_line_metric(wr, m.name, median, m.unit);
      if (std::string_view(m.name) == "run_s") {
        point.wall_seconds = xs;
      } else {
        json::Array arr(xs.begin(), xs.end());
        samples.emplace_back(m.name, json::Value(std::move(arr)));
      }
    }
    const double failed_frac = static_cast<double>(wr.failed()) / wr.attempted();
    print_row(wr.w->name, "failed_frac", failed_frac, failed_frac, wr.attempted(), "ratio");
    point.extra.emplace_back("samples", json::Value(std::move(samples)));
    point.extra.emplace_back("attempted", wr.attempted());
    point.extra.emplace_back("failed", wr.failed());
    point.extra.emplace_back("failed_frac", failed_frac);
    if (wr.traced && wr.traced->ok && !wr.samples("run_s").empty()) {
      const json::Object layers = layers_of(wr);
      for (const MetricDef& m : layer_metrics()) {
        const double v = layer_value(layers, m.name);
        print_row(wr.w->name, m.name, v, v, 1, m.unit);
        add_line_metric(wr, m.name, v, m.unit);
      }
      for (const std::string& name : work_metrics()) {
        point.work.emplace_back(name, std::llround(layer_value(layers, name.c_str())));
      }
      std::sort(point.work.begin(), point.work.end());
      point.extra.emplace_back("layers", json::Value(layers));
    }
  }
  if (!o.out.empty()) rec.write(o.out);

  json::Object line;
  line.emplace_back("correct", failed == 0);
  line.emplace_back("attempted", attempted);
  line.emplace_back("failed", failed);
  line.emplace_back("metrics", json::Value(std::move(line_metrics)));
  std::cout << json::Value(std::move(line)).dump() << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string_view(argv[1]) == "--run-one") return run_child(argc - 1, argv + 1);
    if (argc >= 2 && std::string_view(argv[1]) == "compare") return run_compare(argc - 2, argv + 2);
    if (argc >= 2 && (std::string_view(argv[1]) == "--help" || std::string_view(argv[1]) == "-h")) {
      return usage(std::cout, 0);
    }
    return run_bench(parse_options(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return usage(std::cerr, 2);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: error: " << e.what() << "\n";
    return 2;
  }
}
