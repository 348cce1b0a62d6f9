"""Number-parse analyzer: one home for every text-to-number conversion.

Specs, config overrides, scenario directives and flags all reach the
simulator as text. Their numbers and bools are converted by the helpers in
src/util/units.h (parse_int<T>, parse_real, parse_bool, parse_bytes,
parse_duration; DESIGN.md §9 "Scalar values"), which take the whole string,
reject NaN, infinities and ERANGE values, and reject integers that do not fit
their destination. A bare libc or std:: conversion elsewhere brings back the
bugs those helpers close: `std::strtol` narrowed to int wraps 2^32 to 0,
`strtod` returns NaN, and `std::stod` throws past main on a typo.

Scanned: src/, examples/ and bench/. src/util/units.h itself is exempt.

  number-parse   a call of strto* (strtol, strtod, strtoull, ...), the
                 std::sto* family (stoi, stol, stoll, stoul, stoull, stof,
                 stod, stold), ato* (atoi, atol, atoll, atof) or sscanf.

Escape hatch: `// NOLINT-number-parse(reason)` on the line or alone directly
above.
"""

import re

from vrc_lint import core

# The one file allowed to call the libc conversions.
HOME = "src/util/units.h"

CALL_RE = re.compile(
    r"(?<![\w.>])(?:std::)?"
    r"(strto\w+|sto(?:i|l|ll|ul|ull|f|d|ld)|ato(?:i|l|ll|f)|sscanf)\s*\(")


class NumberParseAnalyzer(core.Analyzer):
    name = "number-parse"
    description = "text-to-number conversions go through src/util/units.h"
    default_paths = ("src", "examples", "bench")

    def run(self, files, root):
        violations = []
        for full, rel in files:
            if rel == HOME:
                continue
            raw_lines = core.read_lines(full)
            code_lines = core.blank_comments_and_strings(raw_lines)
            for index, code in enumerate(code_lines):
                match = CALL_RE.search(code)
                if match:
                    violations.append(core.Violation(
                        rel, index + 1, "number-parse",
                        f"{match.group(1)}() outside {HOME}; use parse_int, "
                        f"parse_real or parse_bool so values cannot wrap, "
                        f"turn NaN or throw", raw_lines[index]))
        return violations

    def extra_self_test(self, root):
        """The default scope must reach every driver directory, and the
        exemption must name a file that really holds the conversions."""
        failures = []
        scanned = {rel for _full, rel in self.collect(root)}
        for required in ("src/cluster/config.cc", "src/util/flags.cc",
                         "examples/vrc_run.cpp", "bench/fault_matrix.cc",
                         HOME):
            if required not in scanned:
                failures.append(f"default scan set is missing {required}")
        home = [full for full, rel in self.collect(root) if rel == HOME]
        if home and not any(CALL_RE.search(line)
                            for line in core.blank_comments_and_strings(
                                core.read_lines(home[0]))):
            failures.append(f"{HOME} holds no conversion call; the exemption "
                            f"is stale")
        return failures
