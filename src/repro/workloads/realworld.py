"""Real-world-like programs: memcached, nginx, sort, ffmpeg stand-ins.

The perf variants (registered in ``WORKLOADS``) follow the paper's
Figure 3/5 usage: four threads, no TLS, bug-free.  The TLS / zlib bug
variants for section 6.4 are built by the same builders with flags and
registered in :mod:`repro.workloads.bugs`.
"""

from __future__ import annotations

from repro.ir.builder import IRBuilder
from repro.ir.module import Module
from repro.workloads.base import Workload, array_at, fill_random, mark_loc
from repro.workloads.libssl import SSLLibrary
from repro.workloads.libzlib import ZLibrary

_TABLE = 512


def _emit_tls_connections(
    b: IRBuilder,
    table: str,
    connections: int,
    leak_bug: bool,
    shutdown_bug: bool,
) -> None:
    """TLS termination loop over ``connections`` client connections."""
    ctx = b.call("SSL_CTX_new", [])
    with b.loop(connections) as conn:
        ssl = b.call("SSL_new", [ctx])
        b.call("SSL_accept", [ssl], void=True)
        buf = b.call("calloc", [8, 8])
        b.call("SSL_read", [ssl, buf, 64], void=True)
        request = b.load(buf)
        slot = b.and_(b.mul(request, 0x9E37), _TABLE - 1)
        b.store(request, array_at(b, table, slot))
        b.call("SSL_write", [ssl, buf, 64], void=True)
        b.call("free", [buf], void=True)

        if shutdown_bug:
            # The memcached/nginx misuse: a single close_notify is sent
            # and the object freed before the peer's arrives.
            b.call("SSL_shutdown", [ssl], void=True)
            b.call("SSL_free", [ssl], void=True)
        elif leak_bug:
            # The memcached TLS-termination leak: even connections are
            # closed correctly, odd ones drop the object on the floor.
            even = b.cmp("eq", b.and_(conn, 1), 0)
            with b.if_then(even):
                b.call("SSL_shutdown", [ssl], void=True)
                b.call("SSL_shutdown", [ssl], void=True)
                b.call("SSL_free", [ssl], void=True)
        else:
            b.call("SSL_shutdown", [ssl], void=True)
            b.call("SSL_shutdown", [ssl], void=True)
            b.call("SSL_free", [ssl], void=True)
    b.call("SSL_CTX_free", [ctx], void=True)


def build_memcached(
    scale: int = 1,
    tls: bool = False,
    leak_bug: bool = False,
    shutdown_bug: bool = False,
) -> Module:
    """Key-value store: hashed gets/sets under a table lock, 4 threads."""
    requests = 60 * scale
    b = IRBuilder(Module("memcached"))
    b.module.add_global("table_lock", 64)

    b.function("mc_worker", ["table", "count"])
    lock = b.global_addr("table_lock")
    hits_slot = b.alloca(8)
    b.store(0, hits_slot)
    with b.loop("count"):
        key = b.call("rand")
        slot = b.and_(b.mul(key, 0x9E37), _TABLE - 1)
        b.call("mutex_lock", [lock], void=True)
        entry = array_at(b, "table", slot)
        existing = b.load(entry)
        found = b.cmp("eq", existing, key)
        with b.if_then(found):
            b.store(b.add(b.load(hits_slot), 1), hits_slot)
        b.store(key, entry)
        b.call("mutex_unlock", [lock], void=True)
    b.ret(0)

    b.function("main")
    table = b.call("calloc", [_TABLE, 8])
    workers = []
    for _ in range(3):
        workers.append(b.call("spawn$mc_worker", [table, requests]))
    b.call("mc_worker", [table, requests], void=True)
    for worker in workers:
        b.call("join", [worker], void=True)
    if tls:
        _emit_tls_connections(b, table, 6, leak_bug, shutdown_bug)
    b.call("free", [table], void=True)
    b.call("program_exit", [], void=True)
    b.ret(0)
    return b.module


def build_nginx(
    scale: int = 1,
    tls: bool = False,
    shutdown_bug: bool = False,
) -> Module:
    """HTTP server: parse request, route by path hash, write response."""
    requests = 40 * scale
    b = IRBuilder(Module("nginx"))
    b.module.add_global("acc_lock", 64)
    b.module.add_global("bytes_served", 8)

    b.function("ngx_worker", ["count"])
    lock = b.global_addr("acc_lock")
    served = b.global_addr("bytes_served")
    with b.loop("count"):
        req = b.call("malloc", [64])
        # Fill the request: method word, path hash words, header flag.
        b.store(0x47455420, req)  # "GET "
        path = b.call("rand")
        b.store(path, b.add(req, 8))
        b.store(b.and_(path, 3), b.add(req, 16))
        # Parse: branch on method and keep-alive flag.
        method = b.load(req)
        is_get = b.cmp("eq", method, 0x47455420)
        resp = b.call("malloc", [64])
        with b.if_then(is_get):
            route = b.and_(b.mul(b.load(b.add(req, 8)), 0x9E37), 255)
            b.store(b.add(200, b.and_(route, 1)), resp)  # status
            b.store(route, b.add(resp, 8))  # body tag
        keep = b.load(b.add(req, 16))
        alive = b.cmp("ne", keep, 0)
        with b.if_then(alive):
            b.store(1, b.add(resp, 16))
        b.call("mutex_lock", [lock], void=True)
        b.store(b.add(b.load(served), 64), served)
        b.call("mutex_unlock", [lock], void=True)
        b.call("free", [req], void=True)
        b.call("free", [resp], void=True)
    b.ret(0)

    b.function("main")
    served = b.global_addr("bytes_served")
    b.store(0, served)
    workers = []
    for _ in range(3):
        workers.append(b.call("spawn$ngx_worker", [requests]))
    b.call("ngx_worker", [requests], void=True)
    for worker in workers:
        b.call("join", [worker], void=True)
    if tls:
        table = b.call("calloc", [_TABLE, 8])
        _emit_tls_connections(b, table, 4, False, shutdown_bug)
        b.call("free", [table], void=True)
    b.call("program_exit", [], void=True)
    b.ret(0)
    return b.module


def build_sort(scale: int = 1) -> Module:
    """GNU-sort-like: 4 threads insertion-sort chunks, main merges."""
    chunk = 40 * scale
    chunks = 4
    n = chunk * chunks
    b = IRBuilder(Module("sort"))

    b.function("sort_worker", ["data", "start", "count"])
    with b.loop(b.sub("count", 1)) as i:
        key_index = b.add(b.add("start", i), 1)
        key = b.load(array_at(b, "data", key_index))
        # Shift larger elements right (bounded inner scan).
        with b.loop(b.add(i, 1)) as j:
            probe = b.sub(b.sub(key_index, j), 1)
            value = b.load(array_at(b, "data", probe))
            bigger = b.cmp("gt", value, key)
            with b.if_then(bigger):
                b.store(value, array_at(b, "data", b.add(probe, 1)))
                b.store(key, array_at(b, "data", probe))
    b.ret(0)

    b.function("main")
    data = b.call("malloc", [n * 8])
    out = b.call("malloc", [n * 8])
    fill_random(b, data, n)
    workers = []
    for c in range(1, chunks):
        workers.append(b.call("spawn$sort_worker", [data, c * chunk, chunk]))
    b.call("sort_worker", [data, 0, chunk], void=True)
    for worker in workers:
        b.call("join", [worker], void=True)
    # 4-way merge by repeated min-of-heads.
    heads = b.call("calloc", [chunks, 8])
    sentinel = (1 << 62)
    with b.loop(n) as out_index:
        best_slot = b.alloca(8)
        best_chunk_slot = b.alloca(8)
        b.store(sentinel, best_slot)
        b.store(0, best_chunk_slot)
        with b.loop(chunks) as c:
            head = b.load(array_at(b, heads, c))
            in_range = b.cmp("lt", head, chunk)
            with b.if_then(in_range):
                index = b.add(b.mul(c, chunk), head)
                value = b.load(array_at(b, data, index))
                smaller = b.cmp("lt", value, b.load(best_slot))
                with b.if_then(smaller):
                    b.store(value, best_slot)
                    b.store(c, best_chunk_slot)
        winner = b.load(best_chunk_slot)
        head_addr = array_at(b, heads, winner)
        b.store(b.add(b.load(head_addr), 1), head_addr)
        b.store(b.load(best_slot), array_at(b, out, out_index))
    b.call("free", [data], void=True)
    b.call("free", [out], void=True)
    b.call("free", [heads], void=True)
    b.call("program_exit", [], void=True)
    b.ret(0)
    return b.module


def build_ffmpeg(
    scale: int = 1,
    zbug: bool = False,
) -> Module:
    """Video-pipeline-like: per-frame transform + crc + zlib inflate."""
    frames = 5 * scale
    frame_words = 48
    b = IRBuilder(Module("ffmpeg"))
    b.module.add_global("frame_lock", 64)
    b.module.add_global("frames_done", 8)

    b.function("enc_worker", ["count"])
    lock = b.global_addr("frame_lock")
    done = b.global_addr("frames_done")
    with b.loop("count"):
        frame = b.call("malloc", [frame_words * 8])
        out = b.call("malloc", [frame_words * 8])
        fill_random(b, frame, frame_words)
        # Transform pass (DCT-ish mixing).
        with b.loop(frame_words - 1) as i:
            a = b.load(array_at(b, frame, i))
            c = b.load(array_at(b, frame, b.add(i, 1)))
            b.store(b.add(b.and_(a, 0xFFFF), b.shr(c, 2)), array_at(b, out, i))
        b.call("crc32", [out, frame_words * 8], void=True)
        # Container demux side: inflate a compressed metadata block.
        strm = b.call("calloc", [8, 8])
        b.call("inflateInit", [strm], void=True)
        status_slot = b.alloca(8)
        b.store(0, status_slot)
        with b.loop(4):
            not_done = b.cmp("eq", b.load(status_slot), 0)
            with b.if_then(not_done):
                status = b.call("inflate", [strm, 0])
                b.store(status, status_slot)
        b.call("inflateEnd", [strm], void=True)
        b.call("free", [strm], void=True)
        b.call("mutex_lock", [lock], void=True)
        b.store(b.add(b.load(done), 1), done)
        b.call("mutex_unlock", [lock], void=True)
        b.call("free", [frame], void=True)
        b.call("free", [out], void=True)
    b.ret(0)

    b.function("main")
    done = b.global_addr("frames_done")
    b.store(0, done)
    workers = []
    for _ in range(3):
        workers.append(b.call("spawn$enc_worker", [frames]))
    b.call("enc_worker", [frames], void=True)
    for worker in workers:
        b.call("join", [worker], void=True)
    if zbug:
        # The ffmpeg bug (commit d1487659): a z_stream used without
        # inflateInit — an uninitialized z_stream driving inflate.
        strm = b.call("calloc", [8, 8])
        b.call("inflate", [strm, 0], void=True)
        mark_loc(b, "id3v2.c:uninit_z_stream")
        b.call("free", [strm], void=True)
    b.call("program_exit", [], void=True)
    b.ret(0)
    return b.module


def _zlib_externs():
    return ZLibrary().externs()


def _ssl_externs():
    return SSLLibrary().externs()


WORKLOADS = {
    "memcached": Workload(
        "memcached", "real", build_memcached, threads=4,
    ),
    "nginx": Workload(
        "nginx", "real", build_nginx, threads=4,
    ),
    "sort": Workload(
        "sort", "real", build_sort, threads=4,
    ),
    "ffmpeg": Workload(
        "ffmpeg", "real", build_ffmpeg, threads=4,
        extern_factory=_zlib_externs,
    ),
}
