#pragma once
// Scratch directory for the suites that write artifact stores.

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace taf::testutil {

/// A fresh directory under the system temp path, removed with its
/// contents when the object is destroyed.
struct TempDir {
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() / "taf_test_XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string path;
};

}  // namespace taf::testutil
