#!/bin/sh
# Out-of-range and malformed CLI values: each must exit 1 with one line
# of output, the message of the parser that owns the value, before any
# work starts. Request flags (--pus, --targets, --insts, --strategy,
# the budget flags) are checked by the request protocol's parser, so
# msctool prints the wire's message; host-side numbers (--jobs, --top,
# fuzz's, mscd's) by client::parseUInt.
#
#   tests/cli_range.sh path/to/msctool path/to/mscd
set -u
msctool=$1
mscd=$2
fail=0

# expect MESSAGE CMD...
expect() {
    want=$1
    shift
    out=$("$@" 2>&1 </dev/null)
    code=$?
    lines=$(printf '%s\n' "$out" | wc -l)
    case "$out" in
      *"$want"*) found=1 ;;
      *) found=0 ;;
    esac
    if [ "$code" -ne 1 ] || [ "$lines" -ne 1 ] || [ "$found" -ne 1 ]; then
        echo "FAIL: $* -> exit $code: $out"
        echo "      wanted exit 1 and one line with: $want"
        fail=1
    fi
}

big=4294967300             # 2^32 + 4: narrowed to 32 bits it was 4
huge=18446744073709551616  # 2^64: past every 64-bit field

for verb in run sweep trace; do
    for v in 0 65 $big -1 4x abc; do
        expect '"targets" must be in [1, 64]' \
            "$msctool" $verb compress --targets $v
    done
    for v in 0 513 $big -1 4x abc; do
        expect '"pus" values must be in [1, 512]' \
            "$msctool" $verb compress --pus $v
    done
    for v in -1 4x abc $huge; do
        expect 'field "insts" must be a non-negative integer' \
            "$msctool" $verb compress --insts $v
    done
    for v in 0 -1 4x abc $big xx; do
        expect "unknown strategy \"$v\" (expected bb|cf|dd)" \
            "$msctool" $verb compress --strategy $v
    done
done
expect '"pus" values must be in [1, 512]' \
    "$msctool" sweep compress --pus 4,abc
expect '"pus" values must be in [1, 512]' \
    "$msctool" run compress --pus 4,8
expect 'unknown strategy "zz"' \
    "$msctool" sweep compress --strategy bb,zz

for verb in run sweep; do
    for v in -1 4x abc $big; do
        expect '"budget.timeout_ms" must be in [0, 4294967295]' \
            "$msctool" $verb compress --timeout-ms $v
    done
    for v in -1 4x abc $huge; do
        expect 'field "max_fuel" must be a non-negative integer' \
            "$msctool" $verb compress --max-fuel $v
        expect 'field "max_cycles" must be a non-negative integer' \
            "$msctool" $verb compress --max-cycles $v
    done
done

# Host-side numbers. 257 is one past client::MAX_JOBS; it is rejected
# before any worker thread starts.
for v in -1 abc 4x 257; do
    expect "--jobs must be an integer in [0, 256], got \"$v\"" \
        "$msctool" sweep compress --jobs $v
    expect "--jobs must be an integer in [0, 256], got \"$v\"" \
        "$msctool" fuzz --jobs $v
done
expect '--top must be an integer in [0, 4294967295]' \
    "$msctool" trace compress --top abc
for f in --count --seed --max-insts --max-fuel; do
    expect "$f must be an integer in [0, 18446744073709551615]" \
        "$msctool" fuzz $f abc
done
expect '--timeout-ms must be an integer in [0, 4294967295]' \
    "$msctool" fuzz --timeout-ms 4294967297
expect 'unknown flag --size' "$msctool" fuzz --size 2

for v in abc -1 257; do
    expect "--jobs must be an integer in [0, 256], got \"$v\"" \
        "$mscd" --stdio --jobs $v
done
expect '--timeout-ms must be an integer in [0, 4294967295]' \
    "$mscd" --stdio --timeout-ms 4294967297
expect '--max-frame must be an integer in [0, 4294967295]' \
    "$mscd" --stdio --max-frame 4x

exit $fail
