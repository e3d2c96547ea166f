// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// One temporary directory per test for the storage tests (DFS volumes,
// checkpoint logs, chaos runs). Each directory is unique to the process
// and the running test, so concurrent ctest workers never share one and a
// crashed earlier run cannot leave files behind for this one to clean,
// and it is removed, with everything in it, when the object goes out of
// scope. A test that resumes from a checkpoint keeps one object for its
// whole body.

#ifndef CASM_TESTS_SCOPED_TEST_DIR_H_
#define CASM_TESTS_SCOPED_TEST_DIR_H_

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace casm {

class ScopedTestDir {
 public:
  /// `<TempDir>/casm_<tag>_<pid>_<suite>.<test>`, created empty.
  explicit ScopedTestDir(const std::string& tag) {
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = test != nullptr ? std::string(test->test_suite_name()) +
                                             "." + test->name()
                                       : std::string("none");
    for (char& c : name) {
      if (c == '/') c = '_';  // parameterized test names
    }
    path_ = ::testing::TempDir() + "casm_" + tag + "_" +
            std::to_string(::getpid()) + "_" + name;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::create_directories(path_, ec);
  }

  ~ScopedTestDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  ScopedTestDir(const ScopedTestDir&) = delete;
  ScopedTestDir& operator=(const ScopedTestDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace casm

#endif  // CASM_TESTS_SCOPED_TEST_DIR_H_
