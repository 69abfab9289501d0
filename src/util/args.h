/**
 * @file
 * Minimal `--flag value` command-line parser used by the CLI tools.
 * Header-only; no dependencies beyond the standard library.
 *
 * Both `--flag value` and `--flag=value` spellings are accepted
 * everywhere: `=`-form tokens are split into flag/value pairs at
 * construction, so every accessor sees one canonical token stream.
 * Repeated value-carrying flags resolve last-one-wins (with a warning
 * on stderr); callers that must not silently drop a value can treat
 * hasConflictingDuplicate() as an error.
 */

#ifndef AUTOSCALE_UTIL_ARGS_H_
#define AUTOSCALE_UTIL_ARGS_H_

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace autoscale {

/** Flag-value argument accessor over argv. */
class Args {
  public:
    /** Wrap (argc, argv) without copying the program's semantics. */
    Args(int argc, const char *const *argv)
    {
        std::vector<std::string> tokens;
        tokens.reserve(static_cast<std::size_t>(argc));
        for (int i = 0; i < argc; ++i) {
            tokens.emplace_back(argv[i]);
        }
        init(std::move(tokens));
    }

    /** Construct from a token list (testing convenience). */
    explicit Args(std::vector<std::string> tokens)
    {
        init(std::move(tokens));
    }

    /** Value following @p flag (last occurrence wins), or @p fallback
     * when absent/trailing. */
    std::string
    get(const std::string &flag, const std::string &fallback = "") const
    {
        std::string value = fallback;
        for (std::size_t i = 0; i + 1 < tokens_.size(); ++i) {
            if (tokens_[i] == flag) {
                value = tokens_[i + 1];
            }
        }
        return value;
    }

    /**
     * Numeric value of @p flag, or @p fallback when the flag is
     * absent, not a number, has trailing garbage, or overflows.
     */
    double
    getDouble(const std::string &flag, double fallback) const
    {
        const std::string value = get(flag);
        if (value.empty()) {
            return fallback;
        }
        try {
            std::size_t consumed = 0;
            const double parsed = std::stod(value, &consumed);
            return consumed == value.size() ? parsed : fallback;
        } catch (const std::invalid_argument &) {
            return fallback;
        } catch (const std::out_of_range &) {
            return fallback;
        }
    }

    /**
     * Integer value of @p flag, or @p fallback when the flag is
     * absent, not an integer, has trailing garbage, or overflows.
     */
    int
    getInt(const std::string &flag, int fallback) const
    {
        const std::string value = get(flag);
        if (value.empty()) {
            return fallback;
        }
        try {
            std::size_t consumed = 0;
            const int parsed = std::stoi(value, &consumed);
            return consumed == value.size() ? parsed : fallback;
        } catch (const std::invalid_argument &) {
            return fallback;
        } catch (const std::out_of_range &) {
            return fallback;
        }
    }

    /** Outcome of a strict typed read (parseDouble/parseInt). */
    enum class ParseStatus {
        Absent,    ///< Flag not given (or trailing with no value).
        Ok,        ///< Parsed; *out was written.
        Malformed, ///< Flag given but not parseable; *out untouched.
    };

    /**
     * Strict typed read of @p flag. Unlike getDouble, this separates
     * "the user didn't pass the flag" from "the user passed garbage":
     * a fallback-returning accessor cannot tell `--rate-x 2.0` absent
     * from `--rate-x oops`, which makes exact file-vs-flag override
     * detection impossible. Malformed means present but not a full
     * finite-syntax number (trailing garbage, overflow, empty value).
     */
    ParseStatus
    parseDouble(const std::string &flag, double *out) const
    {
        if (!has(flag)) {
            return ParseStatus::Absent;
        }
        const std::string value = get(flag);
        if (value.empty()) {
            return ParseStatus::Malformed; // `--flag=` or trailing flag.
        }
        try {
            std::size_t consumed = 0;
            const double parsed = std::stod(value, &consumed);
            if (consumed != value.size()) {
                return ParseStatus::Malformed;
            }
            *out = parsed;
            return ParseStatus::Ok;
        } catch (const std::invalid_argument &) {
            return ParseStatus::Malformed;
        } catch (const std::out_of_range &) {
            return ParseStatus::Malformed;
        }
    }

    /** Strict integer read; same contract as parseDouble. */
    ParseStatus
    parseInt(const std::string &flag, int *out) const
    {
        if (!has(flag)) {
            return ParseStatus::Absent;
        }
        const std::string value = get(flag);
        if (value.empty()) {
            return ParseStatus::Malformed; // `--flag=` or trailing flag.
        }
        try {
            std::size_t consumed = 0;
            const int parsed = std::stoi(value, &consumed);
            if (consumed != value.size()) {
                return ParseStatus::Malformed;
            }
            *out = parsed;
            return ParseStatus::Ok;
        } catch (const std::invalid_argument &) {
            return ParseStatus::Malformed;
        } catch (const std::out_of_range &) {
            return ParseStatus::Malformed;
        }
    }

    /** Whether @p flag appears anywhere (boolean switch). */
    bool
    has(const std::string &flag) const
    {
        for (const auto &token : tokens_) {
            if (token == flag) {
                return true;
            }
        }
        return false;
    }

    /**
     * Whether @p flag is given more than once with differing following
     * values. Plain repeats of the same value are benign (last-one-wins
     * returns it unchanged); conflicting repeats are what a strict
     * caller should reject.
     */
    bool
    hasConflictingDuplicate(const std::string &flag) const
    {
        bool seen = false;
        std::string first;
        for (std::size_t i = 0; i + 1 < tokens_.size(); ++i) {
            if (tokens_[i] != flag) {
                continue;
            }
            if (!seen) {
                seen = true;
                first = tokens_[i + 1];
            } else if (tokens_[i + 1] != first) {
                return true;
            }
        }
        return false;
    }

    /** Number of raw tokens (after `=`-form splitting). */
    std::size_t size() const { return tokens_.size(); }

    /** Every `--flag` token, in order (values and operands left out). */
    std::vector<std::string>
    flags() const
    {
        std::vector<std::string> flags;
        for (const auto &token : tokens_) {
            if (token.size() > 2 && token[0] == '-' && token[1] == '-') {
                flags.push_back(token);
            }
        }
        return flags;
    }

  private:
    void
    init(std::vector<std::string> tokens)
    {
        // Canonicalize: split "--flag=value" (at the first '=') into
        // separate flag/value tokens so every accessor handles both
        // spellings. Only tokens that look like long flags split;
        // positional operands keep any '=' they contain.
        tokens_.reserve(tokens.size());
        for (auto &token : tokens) {
            const std::size_t eq = token.find('=');
            if (token.size() > 2 && token[0] == '-' && token[1] == '-'
                && eq != std::string::npos && eq > 2) {
                tokens_.push_back(token.substr(0, eq));
                tokens_.push_back(token.substr(eq + 1));
            } else {
                tokens_.push_back(std::move(token));
            }
        }
        // Warn once per repeated value-carrying flag: the repeat is
        // legal (last-one-wins) but usually a copy-paste mistake.
        for (std::size_t i = 0; i + 1 < tokens_.size(); ++i) {
            const std::string &flag = tokens_[i];
            if (flag.size() <= 2 || flag[0] != '-' || flag[1] != '-') {
                continue;
            }
            bool warned_earlier = false;
            for (std::size_t j = 0; j < i; ++j) {
                if (tokens_[j] == flag) {
                    warned_earlier = true;
                    break;
                }
            }
            if (warned_earlier) {
                continue;
            }
            for (std::size_t j = i + 1; j + 1 < tokens_.size(); ++j) {
                if (tokens_[j] == flag) {
                    std::cerr << "warning: repeated flag " << flag
                              << "; the last value wins\n";
                    break;
                }
            }
        }
    }

    std::vector<std::string> tokens_;
};

} // namespace autoscale

#endif // AUTOSCALE_UTIL_ARGS_H_
