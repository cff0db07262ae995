#include "common/build_info.h"

namespace cfcm {

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

#if defined(NDEBUG)
constexpr const char* kBuildType = "release";
#else
constexpr const char* kBuildType = "debug";
#endif

}  // namespace

const BuildInfo& GetBuildInfo() {
  static const BuildInfo info{"0.10.0", kCompiler, kBuildType, "c++20"};
  return info;
}

}  // namespace cfcm
