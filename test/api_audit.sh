#!/bin/sh
# The export audit.  Lists every `val` of lib/**/*.mli whose name, as a
# whole word, appears in no .ml file of lib, bin, bench, perfbench or
# examples other than its own module's: an export only tests call, or
# none.  Comments, nested ones included, are skipped; a whole-word
# match still counts strings and other modules' names, so the list is
# a lower bound.
#
# Usage (from the repository root): sh test/api_audit.sh EXPECTED
#
# Prints EXPECTED with every entry that is no longer a hit dropped,
# then any hit EXPECTED does not list, under a "no reason given"
# header.  The output equals EXPECTED exactly when each hit is listed
# under a reason and nothing listed is stale.
set -e
expected=$1
mls=$(find lib bin bench perfbench examples -name '*.ml' | sort)
mlis=$(find lib -name '*.mli' | sort)
awk -v expected="$expected" '
  # The line with its comments blanked.  The comment depth and the
  # open string ("..." or {|...|}) carry over to the next line of the
  # same file.  Strings and char literals are lexed inside comments
  # too, as OCaml does, so a "*)" in a string closes nothing.
  function code(s,    out, i, c, c2, k) {
    if (FNR == 1) { depth = 0; quote = "" }
    out = ""
    for (i = 1; i <= length(s); i++) {
      c = substr(s, i, 1)
      c2 = substr(s, i, 2)
      k = 1
      if (quote == "\"") {
        if (c == "\\") k = 2
        else if (c == "\"") quote = ""
      } else if (quote == "|}") {
        if (c2 == "|}") { quote = ""; k = 2 }
      } else if (c2 == "(*") { depth++; k = 2 }
      else if (depth && c2 == "*)") { depth--; k = 2 }
      else if (c == "\"") quote = c
      else if (c2 == "{|") { quote = "|}"; k = 2 }
      else if (c == "\047" && substr(s, i + 2, 1) == "\047") k = 3
      else if (c2 == "\047\\") k = index(substr(s, i + 2), "\047") + 2
      if (!depth) out = out substr(s, i, k)
      i += k - 1
    }
    return out
  }
  FILENAME == expected { lines[++nlines] = $0; next }
  FILENAME ~ /\.ml$/ {
    line = code($0)
    gsub(/[^A-Za-z0-9_]+/, " ", line)
    n = split(line, w, " ")
    for (i = 1; i <= n; i++)
      if (!((w[i], FILENAME) in seen)) {
        seen[w[i], FILENAME] = 1
        files[w[i]]++
      }
    next
  }
  match($0, /^ *val +[a-z_][A-Za-z0-9_]*/) {
    v = substr($0, RSTART, RLENGTH)
    sub(/^ *val +/, "", v)
    own = FILENAME
    sub(/i$/, "", own)
    key = FILENAME " " v
    if (files[v] - ((v, own) in seen) == 0 && !(key in hit)) {
      hit[key] = 1
      order[++nhits] = key
    }
  }
  END {
    for (i = 1; i <= nlines; i++) {
      l = lines[i]
      if (l == "" || l ~ /^#/) print l
      else if (l in hit) { print l; listed[l] = 1 }
    }
    header = 0
    for (i = 1; i <= nhits; i++)
      if (!(order[i] in listed)) {
        if (!header) { print ""; print "# no reason given"; header = 1 }
        print order[i]
      }
  }
' "$expected" $mls $mlis
