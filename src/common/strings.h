#ifndef DANGORON_COMMON_STRINGS_H_
#define DANGORON_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dangoron {

/// Splits `text` on `delimiter`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Splits `text` on runs of ASCII whitespace, dropping empty fields. This is
/// the tokenizer for the USCRN fixed-format rows.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// True if `text` ends with `suffix`.
bool EndsWith(std::string_view text, std::string_view suffix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Strict string -> double conversion; the whole string must parse.
Result<double> ParseDouble(std::string_view text);

/// Strict string -> int64 conversion; the whole string must parse.
Result<int64_t> ParseInt64(std::string_view text);

/// "1234567" -> "1,234,567" (used by the benchmark tables).
std::string WithThousandsSeparators(int64_t value);

}  // namespace dangoron

#endif  // DANGORON_COMMON_STRINGS_H_
