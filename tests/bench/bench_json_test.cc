/**
 * @file
 * BenchJson::write() must report every way the results file can fail
 * to land, so a bench exits non-zero instead of leaving a CI gate to
 * read a missing or stale file.
 */

#include "bench_json.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace hix::bench
{
namespace
{

namespace fs = std::filesystem;

/** A bench name no other test or process uses. */
std::string
uniqueName(const std::string &what)
{
    return "json_test_" + what + "_" + std::to_string(::getpid());
}

std::string
pathFor(const std::string &name)
{
    return "BENCH_" + name + ".json";
}

TEST(BenchJsonTest, WritesEveryRowToTheWorkingDirectory)
{
    const std::string name = uniqueName("rows");
    BenchJson json(name);
    json.add("config=a \"quoted\"", 42, 1.5).metric("p99", 4e9);
    json.add("config=b", 7, 0.25);
    ASSERT_TRUE(json.write());

    std::ifstream in(pathFor(name));
    std::stringstream text;
    text << in.rdbuf();
    fs::remove(pathFor(name));
    EXPECT_NE(text.str().find("\"config\": \"config=a \\\"quoted\\\"\""),
              std::string::npos)
        << text.str();
    EXPECT_NE(text.str().find("\"p99\": 4000000000"),
              std::string::npos)
        << text.str();
    EXPECT_NE(text.str().find("\"ticks\": 7"), std::string::npos);
}

TEST(BenchJsonTest, DirectoryNamedLikeTheFileFailsTheWrite)
{
    const std::string name = uniqueName("dir");
    ASSERT_TRUE(fs::create_directory(pathFor(name)));
    BenchJson json(name);
    json.add("config=a", 1, 1.0);
    const bool wrote = json.write();
    fs::remove(pathFor(name));
    EXPECT_FALSE(wrote);
}

TEST(BenchJsonTest, FullDeviceFailsTheWrite)
{
    // Opening and formatting succeed into the stdio buffer; the
    // failure shows only when fclose() flushes it.
    if (!fs::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full";
    const std::string name = uniqueName("full");
    fs::create_symlink("/dev/full", pathFor(name));
    BenchJson json(name);
    json.add("config=a", 1, 1.0);
    const bool wrote = json.write();
    fs::remove(pathFor(name));
    EXPECT_FALSE(wrote);
}

}  // namespace
}  // namespace hix::bench
