// Kill/resume durability of the journaled grid, tested with real child
// processes running the golden mode of tools/grid_main (path in
// TSAUG_GRID_BIN) over one dataset:
//   - a journaled straight run equals an unjournaled run;
//   - a run killed mid-grid by the journal.flush abort action and then
//     resumed against the same journal reproduces the uninterrupted
//     report byte for byte, at 1, 2 and 8 threads;
//   - a graceful injected stop exits 3 ("interrupted") with the report
//     marked interrupted, and resuming completes to the identical report.
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace tsaug::eval {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(testing::TempDir()) / name).string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

const char* ChildBinary() { return std::getenv("TSAUG_GRID_BIN"); }

/// Runs the golden grid as a child process with the given journal ("" =
/// none), report path, thread count and TSAUG_FAULTS spec. The grid is
/// one dataset x 3 runs x {baseline, noise_1.0, smote}: three cells per
/// run. Returns the raw wait status from std::system (0 = clean exit).
int RunChild(const std::string& journal, const std::string& out, int threads,
             const std::string& faults = "") {
  std::string command;
  command += "TSAUG_DATASETS=RacketSports TSAUG_TECHNIQUES=noise_1.0,smote ";
  command += "TSAUG_RUNS=3 TSAUG_KERNELS=80 TSAUG_SEED=5 ";
  command += "TSAUG_JOURNAL='" + journal + "' ";
  command += "TSAUG_NUM_THREADS=" + std::to_string(threads) + " ";
  command += "TSAUG_FAULTS='" + faults + "' ";
  // Sequential appends: GCC 12 -O2 fires a bogus -Wrestrict on the
  // char*-plus-rvalue-string overload, fatal under the strict CI leg.
  command += "'";
  command += ChildBinary();
  command += "' --shards 0 --out '" + out + "'";
  return std::system(command.c_str());
}

bool ExitedCleanly(int status) {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

TEST(JournalResume, StraightJournaledRunMatchesUnjournaledRun) {
  if (ChildBinary() == nullptr) GTEST_SKIP() << "TSAUG_GRID_BIN unset";
  const std::string journal = TempPath("resume_straight.jsonl");
  const std::string plain_out = TempPath("resume_straight_plain.txt");
  const std::string journaled_out = TempPath("resume_straight_journaled.txt");
  std::filesystem::remove(journal);

  ASSERT_TRUE(ExitedCleanly(RunChild("", plain_out, 2)));
  ASSERT_TRUE(ExitedCleanly(RunChild(journal, journaled_out, 2)));
  const std::string plain = ReadAll(plain_out);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, ReadAll(journaled_out));
  EXPECT_GT(std::filesystem::file_size(journal), 0u);
}

TEST(JournalResume, KillAndResumeIsByteIdenticalAtOneTwoAndEightThreads) {
  if (ChildBinary() == nullptr) GTEST_SKIP() << "TSAUG_GRID_BIN unset";
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string tag = std::to_string(threads);
    const std::string journal = TempPath("resume_kill_" + tag + ".jsonl");
    const std::string straight_out = TempPath("resume_kill_ref_" + tag);
    const std::string killed_out = TempPath("resume_kill_dead_" + tag);
    const std::string resumed_out = TempPath("resume_kill_back_" + tag);
    std::filesystem::remove(journal);

    // Reference: the uninterrupted run (no journal involved).
    ASSERT_TRUE(ExitedCleanly(RunChild("", straight_out, threads)));

    // Kill: the 4th journal append aborts the process, so run 0's three
    // cells are flushed and the grid dies mid run 1.
    const int killed =
        RunChild(journal, killed_out, threads, "journal.flush:4!");
    EXPECT_FALSE(ExitedCleanly(killed));
    EXPECT_FALSE(std::filesystem::exists(killed_out));  // died before report
    ASSERT_GT(std::filesystem::file_size(journal), 0u);

    // Resume: completed cells come from the journal, the rest recompute;
    // the report must equal the uninterrupted run byte for byte.
    ASSERT_TRUE(ExitedCleanly(RunChild(journal, resumed_out, threads)));
    const std::string straight = ReadAll(straight_out);
    ASSERT_FALSE(straight.empty());
    EXPECT_EQ(straight, ReadAll(resumed_out));
  }
}

TEST(JournalResume, GracefulStopJournalsCompletedRunsAndResumesIdentically) {
  if (ChildBinary() == nullptr) GTEST_SKIP() << "TSAUG_GRID_BIN unset";
  const std::string journal = TempPath("resume_stop.jsonl");
  const std::string straight_out = TempPath("resume_stop_ref.txt");
  const std::string stopped_out = TempPath("resume_stop_cut.txt");
  const std::string resumed_out = TempPath("resume_stop_back.txt");
  std::filesystem::remove(journal);

  ASSERT_TRUE(ExitedCleanly(RunChild("", straight_out, 2)));

  // An injected stop at the run-1 boundary models SIGINT between runs:
  // the child writes its report with run 0 journaled and the row marked
  // interrupted (reports still differ from the straight run — only one
  // run entered the means), then exits 3, grid_main's "interrupted" code.
  const int stopped_status = RunChild(journal, stopped_out, 2,
                                      "cancel.stop@grid/RacketSports/run1:1");
  ASSERT_TRUE(WIFEXITED(stopped_status));
  ASSERT_EQ(WEXITSTATUS(stopped_status), 3);
  const std::string stopped = ReadAll(stopped_out);
  EXPECT_NE(stopped.find("interrupted=1"), std::string::npos);
  EXPECT_NE(stopped, ReadAll(straight_out));

  ASSERT_TRUE(ExitedCleanly(RunChild(journal, resumed_out, 2)));
  const std::string resumed = ReadAll(resumed_out);
  EXPECT_NE(resumed.find("interrupted=0"), std::string::npos);
  EXPECT_EQ(resumed, ReadAll(straight_out));
}

}  // namespace
}  // namespace tsaug::eval
