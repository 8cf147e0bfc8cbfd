// obs::Session: the --trace-out / --metrics-out / --ledger-out flags are
// the only switches of the three observability sinks, and finish() writes
// exactly the files they name, each followed by its stdout footer. The
// ledger is the session's own, handed to a run as its config's sink.
#include "obs/session.hpp"

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "obs/ledger.hpp"
#include "serve/loop.hpp"
#include "../serve/serve_test_util.hpp"

namespace dsem::obs {
namespace {

/// Trace and metrics are process-global: every test starts and ends with
/// both off and empty.
class SessionTest : public ::testing::Test {
protected:
  void SetUp() override { reset_sinks(); }
  void TearDown() override { reset_sinks(); }

  static void reset_sinks() {
    trace::set_enabled(false);
    metrics::set_enabled(false);
    trace::Tracer::global().clear();
    metrics::Registry::global().clear();
  }
};

/// A CLI that knows only the session's flags, parsed from `args`.
CliParser parsed(const std::vector<std::string>& args) {
  CliParser cli("session_test", "obs::Session under test");
  Session::add_cli_options(cli);
  std::vector<const char*> argv = {"session_test"};
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  EXPECT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  return cli;
}

/// Serves three cronos requests through a loop recording into `ledger`.
void serve_three_requests(Ledger* ledger) {
  serve::ModelRegistry registry;
  registry.put(serve_test::synthetic_artifact(0x5E55));
  serve::ServeConfig config;
  config.ledger = ledger;
  serve::ServeLoop loop(registry, config);
  std::vector<serve::TimedRequest> requests(3);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].arrival_s = 1e-3 * static_cast<double>(i);
    requests[i].request.application = "cronos";
    requests[i].request.features = {40.0, 10.0, 500.0};
  }
  loop.run(requests);
}

TEST_F(SessionTest, FlagsTurnSinksOnAndFinishWritesEachFile) {
  const std::string trace_path =
      testing::TempDir() + "dsem_session_trace.json";
  const std::string run_path = testing::TempDir() + "dsem_session_run.json";
  const std::string ledger_path =
      testing::TempDir() + "dsem_session_ledger.json";
  const Session session(parsed({"--trace-out", trace_path, "--metrics-out",
                                run_path, "--ledger-out", ledger_path}));
  EXPECT_TRUE(trace::enabled());
  EXPECT_TRUE(metrics::enabled());
  ASSERT_NE(session.ledger(), nullptr);

  // The driver idiom: the run's config names the session's ledger.
  serve_three_requests(session.ledger());

  auto sweep_report = json::Value::object();
  sweep_report.set("grid_points", 7);
  std::ostringstream out;
  session.finish(out, "session_test", sweep_report);

  EXPECT_TRUE(json::read_file(trace_path).at("traceEvents").is_array());
  const json::Value manifest = json::read_file(run_path);
  EXPECT_EQ(manifest.at("schema").as_string(), kRunSchema);
  EXPECT_EQ(manifest.at("program").as_string(), "session_test");
  EXPECT_TRUE(manifest.at("sweep_report") == sweep_report);
  EXPECT_EQ(manifest.at("metrics").at("schema").as_string(),
            metrics::kMetricsSchema);
  const json::Value ledger = json::read_file(ledger_path);
  EXPECT_EQ(ledger.at("schema").as_string(), kLedgerSchema);
  EXPECT_EQ(ledger.at("program").as_string(), "session_test");
  EXPECT_EQ(ledger.at("requests").as_array().size(), 3u);

  // Each file is followed by its footer, in trace, manifest, ledger order.
  const std::string text = out.str();
  const std::size_t trace_at =
      text.find("\ntrace written to " + trace_path + "\n");
  const std::size_t run_at =
      text.find("\nrun manifest written to " + run_path + "\n");
  const std::size_t ledger_at = text.find(
      "\nledger written to " + ledger_path + " (3 requests, 0 jobs)\n");
  ASSERT_NE(trace_at, std::string::npos) << text;
  ASSERT_NE(run_at, std::string::npos) << text;
  ASSERT_NE(ledger_at, std::string::npos) << text;
  EXPECT_LT(trace_at, run_at);
  EXPECT_LT(run_at, ledger_at);
}

TEST_F(SessionTest, LoopWithoutASinkRecordsNothing) {
  const std::string ledger_path =
      testing::TempDir() + "dsem_session_no_sink.json";
  const Session session(parsed({"--ledger-out", ledger_path}));
  ASSERT_NE(session.ledger(), nullptr);

  // A run whose config names no ledger records nowhere, not even into the
  // session's.
  serve_three_requests(nullptr);

  std::ostringstream out;
  session.finish(out, "session_test");
  EXPECT_TRUE(session.ledger()->requests().empty());
  EXPECT_TRUE(json::read_file(ledger_path).at("requests").as_array().empty());
  EXPECT_EQ(out.str(), "\nledger written to " + ledger_path +
                           " (0 requests, 0 jobs)\n");
}

TEST_F(SessionTest, NoFlagsLeavesSinksOffAndWritesNothing) {
  const Session session(parsed({}));
  EXPECT_FALSE(trace::enabled());
  EXPECT_FALSE(metrics::enabled());
  EXPECT_EQ(session.ledger(), nullptr);
  std::ostringstream out;
  session.finish(out, "session_test");
  EXPECT_EQ(out.str(), "");
}

TEST_F(SessionTest, EnvironmentVariablesNoLongerTurnSinksOn) {
  // The flags are the only switches: the variables that once enabled the
  // sinks at load time and wrote them at exit are ignored.
  const std::string path = testing::TempDir() + "dsem_session_env.json";
  const char* const vars[] = {"DSEM_TRACE", "DSEM_METRICS", "DSEM_LEDGER"};
  for (const char* var : vars) {
    ASSERT_EQ(setenv(var, path.c_str(), 1), 0);
  }
  const Session session(parsed({}));
  EXPECT_FALSE(trace::enabled());
  EXPECT_FALSE(metrics::enabled());
  EXPECT_EQ(session.ledger(), nullptr);
  for (const char* var : vars) {
    unsetenv(var);
  }
}

} // namespace
} // namespace dsem::obs
