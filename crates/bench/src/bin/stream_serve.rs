//! `stream-serve`: the live ingestion daemon. It is `stream-analyze`
//! with `--listen 127.0.0.1:0` as the default source and `stream-serve`
//! as the tool name in its reports; see `webpuzzle_bench::stream_runtime`.

fn main() {
    webpuzzle_bench::stream_runtime::main("stream-serve", Some("127.0.0.1:0"));
}
