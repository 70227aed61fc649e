/**
 * @file
 * Build provenance for telemetry artifacts. Every dump a run leaves
 * behind (combined telemetry JSON, flight-recorder JSONL postmortems,
 * statusz snapshots) is stamped with the git describe string, the
 * compiler, and the HETEROMAP_TELEMETRY / HETEROMAP_SANITIZE
 * configuration, so an artifact pulled out of CI weeks later is
 * attributable to the exact build that produced it.
 *
 * The definitions live in build_info.cc, generated at configure time
 * from util/build_info.cc.in (src/CMakeLists.txt runs git describe
 * and configure_file); this header is static.
 */

#ifndef HETEROMAP_UTIL_BUILD_INFO_HH
#define HETEROMAP_UTIL_BUILD_INFO_HH

#include <string>

namespace heteromap {
namespace telemetry {

/** Configure-time facts about this binary. Pointers are static. */
struct BuildInfo {
    const char *gitDescribe; //!< `git describe --always --dirty`
    const char *compiler;    //!< id + version, e.g. "GNU 13.2.0"
    const char *buildType;   //!< CMAKE_BUILD_TYPE
    const char *telemetry;   //!< "ON" / "OFF"
    const char *sanitize;    //!< HETEROMAP_SANITIZE preset
};

/** The process build info (same object every call). */
const BuildInfo &buildInfo();

/** {"git":...,"compiler":...,...} for embedding in JSON documents. */
std::string buildInfoJson();

} // namespace telemetry
} // namespace heteromap

#endif // HETEROMAP_UTIL_BUILD_INFO_HH
