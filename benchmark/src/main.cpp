// mcs_bench: one workload per process.
//
//   mcs_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--cli PATH] [--out-dir DIR]
//
// Prints "workload metric value unit" per metric, writes the full record
// (quartiles, sample counts, machine descriptor) to DIR/NAME.json (or
// NAME.traced.json), and ends stdout with one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit 0 when every correctness check passed, 3 when one failed, 1 on an
// error (no JSON line then), 2 on bad usage.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "io/json.hpp"

namespace {

using namespace mcs_bench;

int usage(const std::string& why) {
  std::cerr << "mcs_bench: " << why << "\nworkloads:";
  for (const WorkloadSpec& spec : all_workloads()) {
    std::cerr << ' ' << spec.name;
  }
  std::cerr << "\nusage: mcs_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--cli PATH] "
               "[--out-dir DIR]\n";
  return 2;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void write_metrics(mcs::io::JsonWriter& json,
                   const std::vector<Metric>& metrics, bool full) {
  json.begin_object();
  for (const Metric& metric : metrics) {
    json.key(metric.name).begin_object();
    json.field("value", metric.value).field("unit", metric.unit);
    if (full) {
      json.field("q1", metric.q1).field("q3", metric.q3);
      json.field("samples", metric.samples);
    }
    json.end_object();
  }
  json.end_object();
}

void write_record(std::ostream& os, const WorkloadSpec& spec,
                  const Options& options, const Result& result) {
  mcs::io::JsonWriter json(os);
  json.begin_object();
  json.field("schema", "mcs.bench.v1");
  json.field("workload", spec.name);
  json.field("seed", static_cast<std::int64_t>(options.seed));
  json.field("seconds", options.seconds);
  json.field("traced", options.traced);
  json.field("smoke", options.smoke);
  json.key("machine").begin_object();
  json.field("nproc",
             static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  json.field("cpu_model", cpu_model());
  json.field("compiler", "g++ " __VERSION__);
  json.field("build_type", MCS_BENCH_BUILD_TYPE);
  json.end_object();
  json.field("correct", result.correct());
  json.field("attempted", result.attempted);
  json.field("failed", result.failed);
  json.key("metrics");
  write_metrics(json, result.metrics, true);
  json.key("diagnostics");
  write_metrics(json, result.diagnostics, true);
  json.key("notes").begin_array();
  for (const std::string& note : result.notes) json.value(note);
  json.end_array();
  json.end_object();
  os << '\n';
}

void print_line(const std::string& workload, const Metric& metric) {
  std::printf("%s %s %.6g %s\n", workload.c_str(), metric.name.c_str(),
              metric.value, metric.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = next();
      } else if (arg == "--seed") {
        options.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(next());
      } else if (arg == "--trace") {
        options.traced = next() != "0";
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--cli") {
        options.cli = next();
      } else if (arg == "--out-dir") {
        options.out_dir = next();
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  const WorkloadSpec* found = find_workload(options.workload);
  if (found == nullptr) {
    return usage("unknown workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be > 0");
  if (options.smoke) options.seconds = std::max(options.seconds / 10.0, 0.5);
  const WorkloadSpec spec = scaled(*found, options.smoke);

  try {
    std::filesystem::create_directories(options.out_dir);
    Result result;
    if (options.traced) {
      result = run_traced(spec, options);
    } else if (spec.connections > 0) {
      result = run_socket(spec, options);
    } else {
      result = run_closed_loop(spec, options);
    }
    result.diagnostics.push_back(summarize(
        "failed_share", "ratio",
        {result.attempted > 0 ? static_cast<double>(result.failed) /
                                    static_cast<double>(result.attempted)
                              : 1.0}));

    for (const Metric& metric : result.metrics) print_line(spec.name, metric);
    for (const Metric& metric : result.diagnostics) {
      print_line(spec.name, metric);
    }
    for (const std::string& note : result.notes) {
      std::printf("%s note: %s\n", spec.name.c_str(), note.c_str());
    }

    const std::string record_path = options.out_dir + "/" + spec.name +
                                    (options.traced ? ".traced" : "") + ".json";
    std::ofstream record(record_path);
    write_record(record, spec, options, result);
    if (!record) throw std::runtime_error("cannot write " + record_path);

    std::ostringstream line;
    {
      mcs::io::JsonWriter json(line);
      json.begin_object();
      json.field("correct", result.correct());
      json.field("attempted", std::max<std::int64_t>(result.attempted, 1));
      json.field("failed", result.failed);
      json.key("metrics");
      write_metrics(json, result.metrics, false);
      json.end_object();
    }
    std::fflush(stdout);
    std::cout << line.str() << std::endl;
    return result.correct() ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "mcs_bench: " << spec.name << ": " << e.what() << '\n';
    return 1;
  }
}
