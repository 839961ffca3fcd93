// Tests for the runtime utilities in src/rt/: the crash-safe file writer
// every artifact sink uses, and the strict numeric parsers behind the tools'
// command-line flags.

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "rt/atomic_write.hpp"
#include "rt/errors.hpp"
#include "rt/parse.hpp"

namespace plee {
namespace {

class AtomicWrite : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("plee_rt_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const char* name) const { return (dir_ / name).string(); }

    static std::string read(const std::string& p) {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream out;
        out << in.rdbuf();
        return out.str();
    }

    std::size_t files_in_dir() const {
        std::size_t files = 0;
        for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
            (void)entry;
            ++files;
        }
        return files;
    }

    std::filesystem::path dir_;
};

TEST_F(AtomicWrite, WritesAndReplacesWholeFiles) {
    const std::string file = path("artifact.json");
    atomic_write_text(file, "{\"first\": 1}\n");
    EXPECT_EQ(read(file), "{\"first\": 1}\n");

    // A shorter replacement leaves no tail of the old contents behind.
    atomic_write_text(file, "{}");
    EXPECT_EQ(read(file), "{}");
    atomic_write_text(file, "");
    EXPECT_EQ(read(file), "");

    // The temporary file was renamed away, not left behind.
    EXPECT_EQ(files_in_dir(), 1u);
}

TEST_F(AtomicWrite, MissingDirectoryThrowsTypedError) {
    try {
        atomic_write_text(path("no/such/dir/artifact.json"), "x");
        FAIL() << "write into a missing directory succeeded";
    } catch (const plee_error& e) {
        EXPECT_NE(std::string(e.what()).find("no/such/dir"), std::string::npos)
            << e.what();
    }
}

TEST_F(AtomicWrite, FailedWriteNeverClobbersTheCommittedFile) {
    const std::string file = path("artifact.json");
    atomic_write_text(file, "good");

    // Occupy the temporary name with a directory: opening the temp file
    // fails, which must surface as an error and leave `file` untouched.
    const std::string tmp = file + ".tmp." + std::to_string(::getpid());
    std::filesystem::create_directory(tmp);
    EXPECT_THROW(atomic_write_text(file, "bad"), plee_error);
    EXPECT_EQ(read(file), "good");
    std::filesystem::remove(tmp);

    // A rename onto a non-empty directory fails after the temp file was
    // written; the temp file is cleaned up, not left behind.
    const std::string blocked = path("blocked");
    std::filesystem::create_directories(blocked + "/keep");
    EXPECT_THROW(atomic_write_text(blocked, "bad"), plee_error);
    EXPECT_TRUE(std::filesystem::is_directory(blocked));
    EXPECT_EQ(files_in_dir(), 2u);  // artifact.json and blocked/
}

TEST(Parse, UnsignedAcceptsOnlyWholeInRangeIntegers) {
    EXPECT_EQ(parse_unsigned<unsigned>("--threads", "0"), 0u);
    EXPECT_EQ(parse_unsigned<unsigned>("--threads", "4294967295"), 4294967295u);
    EXPECT_EQ(parse_unsigned<std::uint64_t>("--seed", "18446744073709551615"),
              18446744073709551615ull);
    for (const char* bad : {"", "abc", "-1", "+1", " 1", "1 ", "12abc", "64x",
                            "0x10", "1e3", "4294967296"}) {
        EXPECT_THROW(parse_unsigned<unsigned>("--threads", bad),
                     std::invalid_argument)
            << "'" << bad << "'";
    }
    EXPECT_THROW(parse_unsigned<std::uint64_t>("--seed", "18446744073709551616"),
                 std::invalid_argument);
    try {
        parse_unsigned<unsigned>("--gates", "abc");
        FAIL() << "parsed 'abc'";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("--gates"), std::string::npos)
            << e.what();
    }
}

TEST(Parse, PositiveRejectsZeroNamingTheFlagAndValue) {
    EXPECT_EQ(parse_positive<std::size_t>("--vectors", "1"), 1u);
    for (const char* bad : {"0", "00", "-5", "abc", ""}) {
        EXPECT_THROW(parse_positive<std::size_t>("--vectors", bad),
                     std::invalid_argument)
            << "'" << bad << "'";
    }
    try {
        parse_positive<std::size_t>("PLEE_VECTORS", "0");
        FAIL() << "parsed '0'";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("PLEE_VECTORS"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("'0'"), std::string::npos) << e.what();
    }
}

TEST(Parse, NonNegativeAcceptsOnlyFiniteValuesAtLeastZero) {
    EXPECT_EQ(parse_non_negative("--threshold", "0"), 0.0);
    EXPECT_EQ(parse_non_negative("--threshold", "2.5"), 2.5);
    EXPECT_EQ(parse_non_negative("--job-deadline-ms", "1e3"), 1000.0);
    for (const char* bad : {"", "abc", "nan", "inf", "-inf", "-1", "-0.5",
                            "1.5x", " 1", "1e999"}) {
        EXPECT_THROW(parse_non_negative("--job-deadline-ms", bad),
                     std::invalid_argument)
            << "'" << bad << "'";
    }
    try {
        parse_non_negative("--job-deadline-ms", "nan");
        FAIL() << "parsed 'nan'";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("--job-deadline-ms"),
                  std::string::npos)
            << e.what();
    }
}

}  // namespace
}  // namespace plee
