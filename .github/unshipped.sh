#!/usr/bin/env bash
# Compares the internal/ functions that no shipped binary links with the
# exemption list in UNSHIPPED. Builds every cmd/ binary and the benchmark
# harness without inlining, reads their symbol tables with `go tool nm`, and
# lists every func declared in a non-test internal/ file as
# pkg.Func, pkg.Func[...], pkg.T.Method or pkg.(*T).Method. Fails when an
# unlinked function is missing from UNSHIPPED, or when UNSHIPPED lists one
# that is now linked or gone. Run from the repository root.
set -euo pipefail
export LC_ALL=C

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for cmd in cmd/*/; do
  go build -gcflags=all=-l -o "$tmp/bin/$(basename "$cmd")" "./$cmd"
done
(cd benchmark && go build -gcflags=all=-l -o "$tmp/bin/benchmark" .)

for bin in "$tmp"/bin/*; do
  go tool nm "$bin"
done | sed -nE 's/^ *[0-9a-f]+ [Tt] (stalecert\/internal\/.*)$/\1/p' \
  | sed -E 's/\[.*\]/[...]/' | sort -u > "$tmp/linked"

# Top-level declarations in gofmt'd code start a line with "func ".
id='[A-Za-z_][A-Za-z0-9_]*'
go list -f '{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}' ./internal/... \
  | while read -r pkg file; do
      sed -nE \
        -e "s/^func \(($id )?\*($id)(\[[^]]*\])?\) ($id).*/(*\2\3).\4/p" \
        -e "s/^func \(($id )?($id)(\[[^]]*\])?\) ($id).*/\2\3.\4/p" \
        -e "s/^func ($id)(\[)?.*/\1\2/p" "$file" \
        | sed -E 's/\[[^]]*\]?/[...]/' | grep -vxE 'init|main' | sed "s|^|$pkg.|" || true
    done | sort -u > "$tmp/declared"

comm -23 "$tmp/declared" "$tmp/linked" > "$tmp/unlinked"
# UNSHIPPED: "pkg.Func<TAB>why" under internal/, "#" comment lines.
sed -E '/^#/d; /^$/d; s/[[:space:]].*//; s|^|stalecert/internal/|' UNSHIPPED | sort > "$tmp/exempt"

status=0
if comm -23 "$tmp/unlinked" "$tmp/exempt" | grep .; then
  echo "^ linked by no cmd/ binary or the benchmark harness: delete it, or list it in UNSHIPPED with the test or interface that needs it"
  status=1
fi
if comm -13 "$tmp/unlinked" "$tmp/exempt" | grep .; then
  echo "^ listed in UNSHIPPED but now linked or gone: drop its line"
  status=1
fi
echo "$(wc -l < "$tmp/declared") internal/ functions, $(wc -l < "$tmp/unlinked") linked by no binary, $(wc -l < "$tmp/exempt") exempt"
exit $status
