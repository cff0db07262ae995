// The one JSON string escaper, shared by the serve codec (serve/json)
// and the structured logger (obs/log), which must not include each other.
#ifndef CFCM_COMMON_JSON_ESCAPE_H_
#define CFCM_COMMON_JSON_ESCAPE_H_

#include <string>
#include <string_view>

namespace cfcm {

/// Appends `text` to `out` escaped for a JSON string literal: quotes,
/// backslashes and every control character (\b \f \n \r \t by name, the
/// rest as \u00XX). Other bytes, UTF-8 included, pass through.
void AppendJsonEscaped(std::string* out, std::string_view text);

}  // namespace cfcm

#endif  // CFCM_COMMON_JSON_ESCAPE_H_
