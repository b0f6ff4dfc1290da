//! `stream-analyze`: one-pass, bounded-memory analysis of a Common Log
//! Format access log read from a file, stdin, or (`--listen HOST:PORT`)
//! the network. Flags, sources and exit codes are documented in
//! `webpuzzle_bench::stream_runtime`.

fn main() {
    webpuzzle_bench::stream_runtime::main("stream-analyze", None);
}
