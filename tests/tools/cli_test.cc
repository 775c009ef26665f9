// Exit-code contract of icewafl_cli, exercised against the real binary:
// 0 = success, 1 = runtime failure, 2 = usage error. Unknown flags and
// unknown subcommands are always usage errors.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

// ctest runs test cases as parallel processes; keep scratch paths unique.
std::string UniqueTempPath(const std::string& stem) {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "/cli_test_" + std::to_string(getpid()) +
         "_" + std::to_string(counter.fetch_add(1)) + "_" + stem;
}

CliRun RunCli(const std::string& args) {
  const std::string out_path = UniqueTempPath("output.txt");
  const std::string command =
      std::string(ICEWAFL_CLI_PATH) + " " + args + " > " + out_path + " 2>&1";
  int raw = std::system(command.c_str());
  CliRun run;
  run.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  std::ifstream in(out_path);
  std::ostringstream text;
  text << in.rdbuf();
  run.output = text.str();
  std::remove(out_path.c_str());
  return run;
}

std::string WriteTempConfig(const char* name, const std::string& text) {
  const std::string path = UniqueTempPath(name);
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(CliExitCodes, VersionExitsZero) {
  CliRun run = RunCli("--version");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.output.find("icewafl_cli"), std::string::npos) << run.output;
  EXPECT_EQ(RunCli("version").exit_code, 0);
}

TEST(CliExitCodes, NoArgumentsIsUsageError) {
  EXPECT_EQ(RunCli("").exit_code, 2);
}

TEST(CliExitCodes, UnknownSubcommandIsUsageError) {
  CliRun run = RunCli("pollinate");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("unknown subcommand"), std::string::npos)
      << run.output;
}

TEST(CliExitCodes, UnknownFlagIsUsageError) {
  // Every subcommand audits its flags; a stray flag never silently
  // passes through.
  for (const char* args :
       {"run --scenario random_temporal --turbo",
        "serve --scenario random_temporal --frobnicate 1",
        "tail --connect 127.0.0.1:1 --folow",
        "lint --no-such-flag x", "schema --wat"}) {
    SCOPED_TRACE(args);
    EXPECT_EQ(RunCli(args).exit_code, 2);
  }
}

TEST(CliExitCodes, MissingRequiredFlagIsUsageError) {
  EXPECT_EQ(RunCli("serve").exit_code, 2);
  EXPECT_EQ(RunCli("tail").exit_code, 2);
  EXPECT_EQ(RunCli("run").exit_code, 2);
}

// Every integer flag parses strictly: trailing garbage, a negative
// seed, parallelism < 1, hours < 1, or a value that overflows the field
// is a usage error, caught before any file is read or tuple produced.
TEST(CliExitCodes, MalformedIntegerFlagIsUsageError) {
  const std::string out = " --output " + UniqueTempPath("out.csv");
  const std::string pollute =
      "pollute --schema s.json --config c.json --input i.csv" + out;
  const std::string clean_file =
      "clean --rules r.json --schema s.json --input i.csv";
  for (const std::string& args : std::vector<std::string>{
           "serve --scenario random_temporal --port 80x",
           "tail --connect 127.0.0.1:notaport",
           "tail --connect 127.0.0.1:1 --limit zero",
           "run --scenario temporal_noise --parallelism abc",
           "run --scenario temporal_noise --parallelism -3 --seed xyz",
           "run --scenario random_temporal --parallelism 0",
           "run --scenario random_temporal --parallelism 4294967297",
           "run --scenario random_temporal --seed -1",
           pollute + " --seed 12abc",
           pollute + " --seed -5",
           "generate --dataset airquality --hours abc" + out,
           "generate --dataset airquality --hours 0" + out,
           "generate --dataset wearable --seed x1" + out,
           "clean --scenario software_update --parallelism 0",
           "clean --scenario software_update --seed 1.5",
           clean_file + " --parallelism two",
       }) {
    CliRun run = RunCli(args);
    EXPECT_EQ(run.exit_code, 2) << args << "\n" << run.output;
  }
  CliRun valid =
      RunCli("run --scenario random_temporal --seed 7 --parallelism 2");
  EXPECT_EQ(valid.exit_code, 0) << valid.output;
  EXPECT_NE(valid.output.find("seed 7, parallelism 2"), std::string::npos)
      << valid.output;
}

TEST(CliExitCodes, ServeRefusesConfigTheLintRejects) {
  const std::string path = WriteTempConfig(
      "bad_serve.json",
      R"({"sessions": [{"scenario": "random_temporal"}], "port": 70000})");
  CliRun run = RunCli("serve --config " + path);
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("IW601"), std::string::npos) << run.output;
}

TEST(CliExitCodes, ServeRejectsUnknownScenario) {
  CliRun run = RunCli("serve --scenario no_such_scenario");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("IW605"), std::string::npos) << run.output;
}

TEST(CliExitCodes, TailFailsFastWhenNothingListens) {
  // Connection refused is a runtime failure (1), not a usage error.
  EXPECT_EQ(RunCli("tail --connect 127.0.0.1:1").exit_code, 1);
}

TEST(CliExitCodes, LintRoutesServeConfigs) {
  const std::string path = WriteTempConfig(
      "good_serve.json",
      R"({"sessions": [{"scenario": "random_temporal"}], "port": 0})");
  CliRun run = RunCli("lint " + path);
  EXPECT_EQ(run.exit_code, 0) << run.output;

  // The retired single-session shape still routes to the serve loader
  // and fails there with IW608, not with a pipeline parse error.
  const std::string legacy = WriteTempConfig(
      "legacy_serve.json", R"({"scenario": "random_temporal", "port": 0})");
  CliRun rejected = RunCli("lint " + legacy);
  EXPECT_EQ(rejected.exit_code, 1) << rejected.output;
  EXPECT_NE(rejected.output.find("IW608"), std::string::npos)
      << rejected.output;
}

// ---------------------------------------------------------------------
// clean — file mode lints the rules document before reading a single
// tuple (statically broken documents exit 1 with the IW70x report);
// scenario mode runs the closed pollute -> detect -> repair ->
// re-validate loop and prints the scorecard.
// ---------------------------------------------------------------------

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// `run --scenario X` is Algorithm 1 over the generated stream: the same
// bytes as `pollute` with X's shipped config over `generate` output.
TEST(CliRun, ScenarioRunWritesThePolluteBytes) {
  const std::string configs = ICEWAFL_CONFIG_DIR;
  const std::string clean = UniqueTempPath("wearable7.csv");
  ASSERT_EQ(RunCli("generate --dataset wearable --seed 7 --output " + clean)
                .exit_code,
            0);
  for (const char* scenario :
       {"random_temporal", "software_update", "network_delay"}) {
    SCOPED_TRACE(scenario);
    const std::string ran = UniqueTempPath("run.csv");
    const std::string polluted = UniqueTempPath("pollute.csv");
    CliRun run = RunCli(std::string("run --scenario ") + scenario +
                        " --seed 7 --output " + ran);
    ASSERT_EQ(run.exit_code, 0) << run.output;
    CliRun pollute = RunCli("pollute --schema " + configs +
                            "/wearable_schema.json --config " + configs + "/" +
                            scenario + ".json --input " + clean +
                            " --seed 7 --output " + polluted);
    ASSERT_EQ(pollute.exit_code, 0) << pollute.output;
    const std::string ran_bytes = ReadWholeFile(ran);
    EXPECT_FALSE(ran_bytes.empty());
    EXPECT_TRUE(ran_bytes == ReadWholeFile(polluted));
    if (std::string(scenario) == "network_delay") {
      EXPECT_NE(run.output.find("expect_column_values_to_be_increasing(Time): "
                                "18/1059 unexpected"),
                std::string::npos)
          << run.output;
    }
    std::remove(ran.c_str());
    std::remove(polluted.c_str());
  }
  std::remove(clean.c_str());
}

TEST(CliClean, MissingInputsAreUsageErrors) {
  // File mode needs all three of --rules/--schema/--input.
  EXPECT_EQ(RunCli("clean").exit_code, 2);
  EXPECT_EQ(RunCli("clean --rules nowhere.json").exit_code, 2);
  // Scenario-mode flag validation is a usage error too.
  EXPECT_EQ(
      RunCli("clean --scenario software_update --window-seconds 0").exit_code,
      2);
  EXPECT_EQ(
      RunCli("clean --scenario software_update --frobnicate 1").exit_code, 2);
}

TEST(CliClean, UnknownScenarioIsUsageError) {
  EXPECT_EQ(RunCli("clean --scenario no_such_scenario").exit_code, 2);
}

TEST(CliClean, LintRejectedRulesExitOneWithJsonPointerReport) {
  const std::string schema = WriteTempConfig("clean_schema.json", R"({
    "attributes": [{"name": "Time", "type": "int64"},
                   {"name": "BPM", "type": "double"}],
    "timestamp": "Time"
  })");
  const std::string rules = WriteTempConfig("ghost_rules.json", R"({
    "name": "broken",
    "rules": [{"label": "ghost", "column": "Ghost",
               "detect": {"type": "not_null"}, "repair": "set_null"}]
  })");
  const std::string input =
      WriteTempConfig("clean_in.csv", "Time,BPM\n1,60\n");
  CliRun run = RunCli("clean --rules " + rules + " --schema " + schema +
                      " --input " + input);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("IW703"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("/rules/0"), std::string::npos) << run.output;
}

TEST(CliClean, FileModeRepairsAndWritesOutput) {
  const std::string schema = WriteTempConfig("clean_schema.json", R"({
    "attributes": [{"name": "Time", "type": "int64"},
                   {"name": "BPM", "type": "double"}],
    "timestamp": "Time"
  })");
  const std::string rules = WriteTempConfig("drop_rules.json", R"({
    "name": "bpm_gate",
    "rules": [{"label": "bpm_range", "column": "BPM",
               "detect": {"type": "range", "min": 40, "max": 200},
               "repair": "drop"}]
  })");
  const std::string input = WriteTempConfig(
      "clean_in.csv", "Time,BPM\n1,60\n2,300\n3,80\n");
  const std::string output = UniqueTempPath("cleaned.csv");
  CliRun run = RunCli("clean --rules " + rules + " --schema " + schema +
                      " --input " + input + " --output " + output);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("2 kept, 1 dropped"), std::string::npos)
      << run.output;

  std::ifstream cleaned(output);
  std::string line;
  size_t lines = 0;
  while (std::getline(cleaned, line)) ++lines;
  EXPECT_EQ(lines, 3u);  // header + the two surviving rows
  std::remove(output.c_str());
}

TEST(CliClean, ScenarioModeRunsClosedLoopAndWritesReport) {
  const std::string report = UniqueTempPath("closed_loop.json");
  CliRun run =
      RunCli("clean --scenario software_update --report " + report);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("closed loop software_update"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("repair accuracy"), std::string::npos)
      << run.output;

  std::ifstream in(report);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"families\""), std::string::npos);
  EXPECT_NE(text.str().find("\"min_deterministic_f1\""), std::string::npos);
  std::remove(report.c_str());
}

// ---------------------------------------------------------------------
// admin — same contract: 2 = caught client-side before any connection
// (bad flags or IW61x lint errors), 1 = the server rejected the request
// (lint-gated swaps land here with the Diagnostics JSON on stderr).
// ---------------------------------------------------------------------

TEST(CliAdminExitCodes, UsageErrorsExitTwoBeforeConnecting) {
  // Port 1 has no listener, so an exit of 2 (not 1) on these proves the
  // client-side gate fired before any connect was attempted.
  EXPECT_EQ(RunCli("admin").exit_code, 2);
  EXPECT_EQ(RunCli("admin list_sessions").exit_code, 2);  // no --connect
  EXPECT_EQ(RunCli("admin list_sessions --connect nocolon").exit_code, 2);

  CliRun unknown = RunCli("admin frobnicate --connect 127.0.0.1:1");
  EXPECT_EQ(unknown.exit_code, 2);
  EXPECT_NE(unknown.output.find("IW611"), std::string::npos)
      << unknown.output;

  CliRun swap =
      RunCli("admin swap_pipeline --connect 127.0.0.1:1 --session s");
  EXPECT_EQ(swap.exit_code, 2);
  EXPECT_NE(swap.output.find("IW613"), std::string::npos) << swap.output;

  CliRun rate = RunCli(
      "admin set_rate --connect 127.0.0.1:1 --session s --rate fast");
  EXPECT_EQ(rate.exit_code, 2);

  CliRun no_session = RunCli("admin get_config --connect 127.0.0.1:1");
  EXPECT_EQ(no_session.exit_code, 2);
  EXPECT_NE(no_session.output.find("IW612"), std::string::npos)
      << no_session.output;
}

TEST(CliAdminExitCodes, ConnectionRefusedIsRuntimeFailure) {
  EXPECT_EQ(RunCli("admin list_sessions --connect 127.0.0.1:1").exit_code, 1);
}

/// Starts `icewafl_cli serve` in the background and kills it on scope
/// exit; serves one scenario with the admin channel on an ephemeral
/// port scraped from the startup banner.
class BackgroundServe {
 public:
  explicit BackgroundServe(const std::string& serve_args)
      : log_path_(UniqueTempPath("serve_log.txt")),
        pid_path_(UniqueTempPath("serve_pid.txt")) {
    const std::string command = "sh -c '" + std::string(ICEWAFL_CLI_PATH) +
                                " " + serve_args + " > " + log_path_ +
                                " 2>&1 & echo $!> " + pid_path_ + "'";
    std::system(command.c_str());
  }

  ~BackgroundServe() {
    std::system(("kill -9 $(cat " + pid_path_ + ") 2>/dev/null").c_str());
    std::remove(log_path_.c_str());
    std::remove(pid_path_.c_str());
  }

  /// Polls the serve log for a line containing `needle` (10s cap).
  std::string WaitForLine(const std::string& needle) const {
    for (int i = 0; i < 100; ++i) {
      std::ifstream in(log_path_);
      std::string line;
      while (std::getline(in, line)) {
        if (line.find(needle) != std::string::npos) return line;
      }
      usleep(100 * 1000);
    }
    return "";
  }

  /// The "host:port" tail of a banner line like "admin channel on
  /// 127.0.0.1:37841", or "" if the banner never appeared.
  std::string Endpoint(const std::string& banner) const {
    const std::string line = WaitForLine(banner);
    const size_t on = line.rfind(" on ");
    if (on == std::string::npos) return "";
    return line.substr(on + 4);
  }

 private:
  std::string log_path_;
  std::string pid_path_;
};

TEST(CliAdminExitCodes, LiveServerAcceptsMutationsAndRejectsBadSwaps) {
  BackgroundServe serve(
      "serve --scenario random_temporal --port 0 --admin-port 0");
  const std::string endpoint = serve.Endpoint("admin channel on");
  ASSERT_FALSE(endpoint.empty()) << "serve never printed the admin banner";
  const std::string connect = " --connect " + endpoint;

  CliRun listed = RunCli("admin list_sessions" + connect);
  EXPECT_EQ(listed.exit_code, 0) << listed.output;
  EXPECT_NE(listed.output.find("random_temporal"), std::string::npos)
      << listed.output;

  // A healthy swap: exit 0, version bumped to 2.
  CliRun swapped = RunCli("admin swap_pipeline" + connect +
                          " --session random_temporal"
                          " --scenario software_update");
  EXPECT_EQ(swapped.exit_code, 0) << swapped.output;
  EXPECT_NE(swapped.output.find("\"plan_version\": 2"), std::string::npos)
      << swapped.output;

  // A swap the server's lint gate rejects: exit 1, full Diagnostics on
  // stderr (IW101: unknown attribute for the session's schema).
  const std::string bad = WriteTempConfig("bad_pipeline.json", R"({
    "name": "broken",
    "polluters": [
      {"type": "standard", "label": "bad", "attributes": ["Nope"],
       "condition": {"type": "always"},
       "error": {"type": "missing_value"}}
    ]
  })");
  CliRun rejected = RunCli("admin swap_pipeline" + connect +
                           " --session random_temporal --pipeline " + bad);
  EXPECT_EQ(rejected.exit_code, 1) << rejected.output;
  EXPECT_NE(rejected.output.find("admin swap_pipeline failed"),
            std::string::npos)
      << rejected.output;
  EXPECT_NE(rejected.output.find("IW101"), std::string::npos)
      << rejected.output;

  // The rejected swap was not applied: still version 2.
  CliRun config =
      RunCli("admin get_config" + connect + " --session random_temporal");
  EXPECT_EQ(config.exit_code, 0) << config.output;
  EXPECT_NE(config.output.find("\"plan_version\": 2"), std::string::npos)
      << config.output;

  // Stopping an unknown session is a server-side NotFound: exit 1.
  CliRun missing =
      RunCli("admin stop_session" + connect + " --session nope");
  EXPECT_EQ(missing.exit_code, 1) << missing.output;
}

}  // namespace
