# lib.sh — the prelude the smoke scripts share; source it, do not run it.
#
#   smoke_setup NAME BIN...
#
# enters the repo root, gives the script a scratch dir in $work and puts
# the named binaries (cmd/BIN each, built with -race) into it. The dir is
# a fresh mktemp one removed on exit, unless ${NAME}_SMOKE_WORK (NAME
# upper-cased: WIRE_SMOKE_WORK, …) names a path — CI sets it to collect
# artifacts on failure, and an externally named dir is left in place.
# INSITU_BIN_DIR, when set, names a dir of prebuilt race binaries that
# are installed instead of built, so CI builds them once across the
# smoke jobs. On exit every pid the script appended to $pids is killed.

pids=()

smoke_setup() {
	local name=$1 pin b
	shift
	cd "$(dirname "${BASH_SOURCE[0]}")/.."
	pin="${name^^}_SMOKE_WORK"
	if [[ -n "${!pin:-}" ]]; then
		work=${!pin}
		keep_work=1
		rm -rf "$work"
		mkdir -p "$work"
	else
		work=$(mktemp -d "${TMPDIR:-/tmp}/$name-smoke.XXXXXX")
		keep_work=0
	fi
	trap smoke_cleanup EXIT
	if [[ -n "${INSITU_BIN_DIR:-}" ]]; then
		echo "== using prebuilt binaries from $INSITU_BIN_DIR =="
		for b in "$@"; do
			install -m 0755 "$INSITU_BIN_DIR/$b" "$work/"
		done
	else
		echo "== build (race) =="
		go build -race -o "$work/" "${@/#/./cmd/}"
	fi
}

smoke_cleanup() {
	local p
	for p in "${pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
	((keep_work)) || rm -rf "$work"
}
