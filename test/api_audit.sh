#!/bin/sh
# The export audit.  Lists every `val` of lib/**/*.mli whose name, as a
# whole word, appears in no .ml file of lib, bin, bench, perfbench or
# examples other than its own module's: an export only tests call, or
# none.  A whole-word match counts comments and other modules' names
# too, so the list is a lower bound.
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
  FILENAME == expected { lines[++nlines] = $0; next }
  FILENAME ~ /\.ml$/ {
    line = $0
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
