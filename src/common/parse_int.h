#ifndef TMOTIF_COMMON_PARSE_INT_H_
#define TMOTIF_COMMON_PARSE_INT_H_

#include <cstdint>
#include <limits>

namespace tmotif {

/// Parses all of `text` as a base-10 integer (an optional sign, then
/// digits). Returns false, leaving `*out` untouched, for an empty value,
/// leading whitespace, any trailing character ("1h", "3.5"), or a value
/// outside the int64 range. The numeric command-line flags of the tools go
/// through this instead of atoi/atoll, which accept all of those silently.
bool ParseInt64(const char* text, std::int64_t* out);

/// ParseInt64, additionally rejecting values that do not fit in `T`.
template <typename T>
bool ParseInt(const char* text, T* out) {
  std::int64_t value = 0;
  if (!ParseInt64(text, &value)) return false;
  if (value < static_cast<std::int64_t>(std::numeric_limits<T>::min()) ||
      value > static_cast<std::int64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

}  // namespace tmotif

#endif  // TMOTIF_COMMON_PARSE_INT_H_
