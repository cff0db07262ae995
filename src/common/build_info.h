// Static build identification surfaced by the `stats` op and the admin
// plane's /statusz endpoint. Deliberately excludes build timestamps so
// binaries stay reproducible.
#ifndef CFCM_COMMON_BUILD_INFO_H_
#define CFCM_COMMON_BUILD_INFO_H_

namespace cfcm {

struct BuildInfo {
  const char* version;       ///< repo version, e.g. "0.10.0"
  const char* compiler;      ///< toolchain family + version string
  const char* build_type;    ///< "release" (NDEBUG) or "debug"
  const char* cxx_standard;  ///< language level, e.g. "c++20"
};

const BuildInfo& GetBuildInfo();

}  // namespace cfcm

#endif  // CFCM_COMMON_BUILD_INFO_H_
