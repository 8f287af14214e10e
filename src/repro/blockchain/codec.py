"""Compact binary codec for cross-process shard traffic.

The process-parallel shard engine (``repro.blockchain.shardworker``)
moves commands, completions and summaries between the parent control
plane and shard worker processes.  Pickling live simulator objects
across that boundary would be both slow (pickle walks object graphs and
memo tables) and fragile (a worker would happily unpickle a closure or
a whole ``Network``).  This codec instead defines an explicit, closed
wire format:

* **values** — ``None``/bool/int/float/str/bytes and (nested)
  list/tuple/dict trees, msgpack-style: one tag byte, varint lengths,
  integers of arbitrary precision as a zigzag-folded, length-prefixed
  little-endian byte string (RSA signatures are 512-bit ints: one
  ``to_bytes`` / ``from_bytes`` each, not 74 varint steps), IEEE-754
  doubles so simulated timestamps round-trip bit-exactly;
* **protocol objects** — :class:`Proposal`, :class:`Certificate`,
  :class:`Transaction`, :class:`BlockHeader`, :class:`Block`,
  :class:`TxResult` and every wire message in
  :mod:`repro.blockchain.messages`, each as a fixed field sequence
  (a certificate's fields sit inside a length-prefixed blob).

Containers are written as tag, length, then the items back to back, so
``encode((a, b, c)) == encode((a, b, None))[:-1] + encode(c)`` — the
realnet transport builds its frames on that.

Decoding reconstructs plain fresh objects: digest memos are *not*
transported, so a decoded transaction re-derives its digest from its
fields — ``decode(encode(tx)).digest() == tx.digest()`` is the
digest-preservation property the codec round-trip tests pin.  Equal
bytes decode to one shared object per process (DESIGN.md §17) for the
immutable :class:`Certificate`, and in :func:`decode_shared` — the
realnet receive path — for the broadcast votes, sync hashes and blocks.

Anything outside the closed set raises :class:`CodecError` instead of
falling back to pickle.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Tuple

from .block import Block, BlockHeader
from .identity import Certificate
from .crypto import PublicKey, cached_decoding
from .messages import (
    DeliverBlock,
    QueryTxStatus,
    RequestBlocks,
    SubmitTx,
    SyncHashMsg,
    TxStatusReply,
    VoteMsg,
)
from .transaction import Proposal, Transaction, TxResult

__all__ = ["CodecError", "encode", "decode", "decode_envelope", "decode_shared"]


class CodecError(ValueError):
    """Raised for objects outside the codec's closed type set, or for
    malformed/truncated wire bytes."""


# ---------------------------------------------------------------------
# tags

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09

_T_PROPOSAL = 0x20
_T_CERTIFICATE = 0x21
_T_TRANSACTION = 0x22
_T_BLOCK_HEADER = 0x23
_T_BLOCK = 0x24
_T_TX_RESULT = 0x25

_T_SUBMIT_TX = 0x30
_T_DELIVER_BLOCK = 0x31
_T_VOTE = 0x32
_T_SYNC_HASH = 0x33
_T_REQUEST_BLOCKS = 0x34
_T_QUERY_TX_STATUS = 0x35
_T_TX_STATUS_REPLY = 0x36

_pack_double = struct.Struct(">d").pack
_unpack_double = struct.Struct(">d").unpack_from


# ---------------------------------------------------------------------
# primitives

def _write_varint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint: lengths and counts, nearly always one byte."""
    if value < 0x80:
        out.append(value)
        return
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_zigzag(out: bytearray, value: int) -> None:
    """Signed integer of any width: zigzag-folded to unsigned, then its
    byte count as a varint and its minimal little-endian bytes."""
    folded = value << 1 if value >= 0 else (~value << 1) | 1
    n_bytes = (folded.bit_length() + 7) >> 3
    _write_varint(out, n_bytes)
    out += folded.to_bytes(n_bytes, "little")


def _write_str(out: bytearray, value: str) -> None:
    data = value.encode("utf-8")
    _write_varint(out, len(data))
    out += data


#: Containers and protocol objects nested deeper are malformed: each
#: level is a few Python calls, and a frame of nested one-item lists or
#: of results whose ``TxResult.block`` is another would exhaust the stack.
_MAX_DEPTH = 100


class _Reader:
    __slots__ = ("data", "pos", "depth")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.depth = 0  # containers and objects open around ``pos``

    def byte(self) -> int:
        try:
            value = self.data[self.pos]
        except IndexError:
            raise CodecError("truncated frame") from None
        self.pos += 1
        return value

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise CodecError("truncated frame")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def varint(self) -> int:
        value = self.byte()
        if value < 0x80:
            return value
        value &= 0x7F
        shift = 7
        while True:
            byte = self.byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def zigzag(self) -> int:
        raw = self.take(self.varint())
        if raw and not raw[-1]:
            raise CodecError("integer is not minimally encoded")
        folded = int.from_bytes(raw, "little")
        return (folded >> 1) ^ -(folded & 1)

    def string(self) -> str:
        try:
            return self.take(self.varint()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"string is not UTF-8: {exc}") from None


# ---------------------------------------------------------------------
# values

def _encode_value(out: bytearray, obj: Any) -> None:
    if obj is None:
        out.append(_T_NONE)
    elif obj is True:
        out.append(_T_TRUE)
    elif obj is False:
        out.append(_T_FALSE)
    elif type(obj) is int:
        out.append(_T_INT)
        _write_zigzag(out, obj)
    elif type(obj) is float:
        out.append(_T_FLOAT)
        out += _pack_double(obj)
    elif type(obj) is str:
        out.append(_T_STR)
        _write_str(out, obj)
    elif type(obj) is bytes:
        out.append(_T_BYTES)
        _write_varint(out, len(obj))
        out += obj
    elif type(obj) is list:
        out.append(_T_LIST)
        _write_varint(out, len(obj))
        for item in obj:
            _encode_value(out, item)
    elif type(obj) is tuple:
        out.append(_T_TUPLE)
        _write_varint(out, len(obj))
        for item in obj:
            _encode_value(out, item)
    elif type(obj) is dict:
        out.append(_T_DICT)
        _write_varint(out, len(obj))
        for key, value in obj.items():
            _encode_value(out, key)
            _encode_value(out, value)
    else:
        encoder = _STRUCT_ENCODERS.get(type(obj))
        if encoder is None:
            raise CodecError(
                f"cannot encode {type(obj).__name__}: not in the codec's "
                "closed type set (convert it to native values first)"
            )
        encoder(out, obj)


# -- protocol objects --------------------------------------------------

def _encode_proposal(out: bytearray, p: Proposal) -> None:
    out.append(_T_PROPOSAL)
    _write_str(out, p.tx_id)
    _write_str(out, p.contract)
    _write_str(out, p.function)
    _encode_value(out, tuple(p.args))
    _write_str(out, p.nonce)
    _write_str(out, p.creator)
    out += _pack_double(p.timestamp)
    _encode_value(out, tuple(p.touched_keys))


def _decode_proposal(r: _Reader) -> Proposal:
    tx_id = r.string()
    contract = r.string()
    function = r.string()
    args = _decode_value(r)
    nonce = r.string()
    creator = r.string()
    timestamp = _unpack_double(r.take(8))[0]
    touched = _decode_value(r)
    return Proposal(
        tx_id=tx_id, contract=contract, function=function, args=args,
        nonce=nonce, creator=creator, timestamp=timestamp,
        touched_keys=touched,
    )


def _encode_certificate(out: bytearray, c: Certificate) -> None:
    out.append(_T_CERTIFICATE)
    blob = bytearray()
    _write_str(blob, c.subject)
    _write_zigzag(blob, c.public_key.n)
    _write_zigzag(blob, c.public_key.e)
    _write_str(blob, c.issuer)
    _write_zigzag(blob, c.serial)
    _write_zigzag(blob, c.signature)
    _write_varint(out, len(blob))
    out += blob


def _certificate_from_encoding(data: bytes) -> Certificate:
    r = _Reader(data)
    r.pos = 1  # past the tag
    r.varint()  # the blob length, which ends ``data``
    subject = r.string()
    n = r.zigzag()
    e = r.zigzag()
    issuer = r.string()
    serial = r.zigzag()
    signature = r.zigzag()
    if r.pos != len(data):
        raise CodecError(f"{len(data) - r.pos} trailing bytes in certificate")
    return Certificate(
        subject=subject, public_key=PublicKey(n=n, e=e),
        issuer=issuer, serial=serial, signature=signature,
    )


def _decode_certificate(r: _Reader) -> Certificate:
    # Every transaction of a player carries the same certificate: equal
    # encodings (tag included) are parsed once per process and the
    # frozen object is shared.
    start = r.pos - 1
    r.take(r.varint())
    return cached_decoding(r.data[start:r.pos], _certificate_from_encoding)


def _encode_transaction(out: bytearray, tx: Transaction) -> None:
    out.append(_T_TRANSACTION)
    _encode_proposal(out, tx.proposal)
    _encode_certificate(out, tx.certificate)
    _write_zigzag(out, tx.signature)


def _decode_transaction(r: _Reader) -> Transaction:
    if r.byte() != _T_PROPOSAL:
        raise CodecError("transaction frame missing proposal")
    proposal = _decode_proposal(r)
    if r.byte() != _T_CERTIFICATE:
        raise CodecError("transaction frame missing certificate")
    certificate = _decode_certificate(r)
    signature = r.zigzag()
    return Transaction(proposal=proposal, certificate=certificate, signature=signature)


def _encode_block_header(out: bytearray, h: BlockHeader) -> None:
    out.append(_T_BLOCK_HEADER)
    _write_zigzag(out, h.number)
    _write_str(out, h.previous_hash)
    _write_str(out, h.data_hash)
    out += _pack_double(h.timestamp)


def _decode_block_header(r: _Reader) -> BlockHeader:
    number = r.zigzag()
    previous_hash = r.string()
    data_hash = r.string()
    timestamp = _unpack_double(r.take(8))[0]
    return BlockHeader(
        number=number, previous_hash=previous_hash,
        data_hash=data_hash, timestamp=timestamp,
    )


def _encode_block(out: bytearray, b: Block) -> None:
    out.append(_T_BLOCK)
    _encode_block_header(out, b.header)
    _write_varint(out, len(b.transactions))
    for tx in b.transactions:
        _encode_transaction(out, tx)
    _encode_value(out, list(b.validation_codes))
    _encode_value(out, b.config)


def _decode_block(r: _Reader) -> Block:
    if r.byte() != _T_BLOCK_HEADER:
        raise CodecError("block frame missing header")
    header = _decode_block_header(r)
    n_txs = r.varint()
    txs: List[Transaction] = []
    for _ in range(n_txs):
        if r.byte() != _T_TRANSACTION:
            raise CodecError("block frame missing transaction")
        txs.append(_decode_transaction(r))
    validation_codes = _decode_value(r)
    config = _decode_value(r)
    return Block(
        header=header, transactions=txs,
        validation_codes=validation_codes, config=config,
    )


def _encode_tx_result(out: bytearray, res: TxResult) -> None:
    out.append(_T_TX_RESULT)
    _write_str(out, res.tx_id)
    _write_str(out, res.code)
    _encode_value(out, res.block)
    _write_zigzag(out, res.votes_for)
    _write_zigzag(out, res.votes_against)
    _write_str(out, res.detail)


def _decode_tx_result(r: _Reader) -> TxResult:
    return TxResult(
        tx_id=r.string(), code=r.string(), block=_decode_value(r),
        votes_for=r.zigzag(), votes_against=r.zigzag(), detail=r.string(),
    )


# -- wire messages -----------------------------------------------------

def _encode_submit_tx(out: bytearray, msg: SubmitTx) -> None:
    out.append(_T_SUBMIT_TX)
    _encode_transaction(out, msg.tx)


def _decode_submit_tx(r: _Reader) -> SubmitTx:
    if r.byte() != _T_TRANSACTION:
        raise CodecError("SubmitTx frame missing transaction")
    return SubmitTx(tx=_decode_transaction(r))


def _encode_deliver_block(out: bytearray, msg: DeliverBlock) -> None:
    out.append(_T_DELIVER_BLOCK)
    _encode_block(out, msg.block)


def _decode_deliver_block(r: _Reader) -> DeliverBlock:
    if r.byte() != _T_BLOCK:
        raise CodecError("DeliverBlock frame missing block")
    return DeliverBlock(block=_decode_block(r))


def _attestation_flags(msg) -> int:
    """The anti-entropy markers of a vote / sync hash as one flag byte
    (bit 0 ``is_reply``, bit 1 ``is_retry``)."""
    return (1 if msg.is_reply else 0) | (2 if msg.is_retry else 0)


def _read_attestation_flags(r: _Reader) -> Tuple[bool, bool]:
    flags = r.byte()
    if flags > 3:
        raise CodecError(f"unknown attestation flags {flags:#x}")
    return bool(flags & 1), bool(flags & 2)


def _encode_vote(out: bytearray, msg: VoteMsg) -> None:
    out.append(_T_VOTE)
    _write_zigzag(out, msg.block_number)
    _write_str(out, msg.voter)
    # Votes are a bool tuple: pack as a bit string, LSB-first per byte.
    _write_varint(out, len(msg.votes))
    bits = 0
    packed = bytearray()
    for i, vote in enumerate(msg.votes):
        if vote:
            bits |= 1 << (i & 7)
        if (i & 7) == 7:
            packed.append(bits)
            bits = 0
    if len(msg.votes) & 7:
        packed.append(bits)
    out += packed
    out.append(_attestation_flags(msg))


def _decode_vote(r: _Reader) -> VoteMsg:
    block_number = r.zigzag()
    voter = r.string()
    n_votes = r.varint()
    packed = r.take((n_votes + 7) // 8)
    votes = tuple(bool(packed[i >> 3] & (1 << (i & 7))) for i in range(n_votes))
    is_reply, is_retry = _read_attestation_flags(r)
    return VoteMsg(
        block_number=block_number, voter=voter, votes=votes,
        is_reply=is_reply, is_retry=is_retry,
    )


def _encode_sync_hash(out: bytearray, msg: SyncHashMsg) -> None:
    out.append(_T_SYNC_HASH)
    _write_zigzag(out, msg.block_number)
    _write_str(out, msg.sender)
    _write_str(out, msg.state_hash)
    out.append(_attestation_flags(msg))


def _decode_sync_hash(r: _Reader) -> SyncHashMsg:
    block_number = r.zigzag()
    sender = r.string()
    state_hash = r.string()
    is_reply, is_retry = _read_attestation_flags(r)
    return SyncHashMsg(
        block_number=block_number, sender=sender, state_hash=state_hash,
        is_reply=is_reply, is_retry=is_retry,
    )


def _encode_request_blocks(out: bytearray, msg: RequestBlocks) -> None:
    out.append(_T_REQUEST_BLOCKS)
    _write_zigzag(out, msg.from_number)
    _write_zigzag(out, msg.to_number)


def _decode_request_blocks(r: _Reader) -> RequestBlocks:
    return RequestBlocks(from_number=r.zigzag(), to_number=r.zigzag())


def _encode_query_tx_status(out: bytearray, msg: QueryTxStatus) -> None:
    out.append(_T_QUERY_TX_STATUS)
    _write_str(out, msg.tx_id)


def _decode_query_tx_status(r: _Reader) -> QueryTxStatus:
    return QueryTxStatus(tx_id=r.string())


def _encode_tx_status_reply(out: bytearray, msg: TxStatusReply) -> None:
    out.append(_T_TX_STATUS_REPLY)
    _write_str(out, msg.tx_id)
    _write_str(out, msg.code)
    _encode_value(out, msg.block)


def _decode_tx_status_reply(r: _Reader) -> TxStatusReply:
    return TxStatusReply(tx_id=r.string(), code=r.string(), block=_decode_value(r))


_STRUCT_ENCODERS: Dict[type, Callable[[bytearray, Any], None]] = {
    Proposal: _encode_proposal,
    Certificate: _encode_certificate,
    Transaction: _encode_transaction,
    BlockHeader: _encode_block_header,
    Block: _encode_block,
    TxResult: _encode_tx_result,
    SubmitTx: _encode_submit_tx,
    DeliverBlock: _encode_deliver_block,
    VoteMsg: _encode_vote,
    SyncHashMsg: _encode_sync_hash,
    RequestBlocks: _encode_request_blocks,
    QueryTxStatus: _encode_query_tx_status,
    TxStatusReply: _encode_tx_status_reply,
}

_STRUCT_DECODERS: Dict[int, Callable[[_Reader], Any]] = {
    _T_PROPOSAL: _decode_proposal,
    _T_CERTIFICATE: _decode_certificate,
    _T_TRANSACTION: _decode_transaction,
    _T_BLOCK_HEADER: _decode_block_header,
    _T_BLOCK: _decode_block,
    _T_TX_RESULT: _decode_tx_result,
    _T_SUBMIT_TX: _decode_submit_tx,
    _T_DELIVER_BLOCK: _decode_deliver_block,
    _T_VOTE: _decode_vote,
    _T_SYNC_HASH: _decode_sync_hash,
    _T_REQUEST_BLOCKS: _decode_request_blocks,
    _T_QUERY_TX_STATUS: _decode_query_tx_status,
    _T_TX_STATUS_REPLY: _decode_tx_status_reply,
}


def _decode_value(r: _Reader) -> Any:
    tag = r.byte()
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return r.zigzag()
    if tag == _T_FLOAT:
        return _unpack_double(r.take(8))[0]
    if tag == _T_STR:
        return r.string()
    if tag == _T_BYTES:
        return r.take(r.varint())
    decoder = _STRUCT_DECODERS.get(tag)
    if decoder is None and not _T_LIST <= tag <= _T_DICT:
        raise CodecError(f"unknown tag 0x{tag:02x} at offset {r.pos - 1}")
    # Containers and protocol objects are the tags that recurse.
    if r.depth >= _MAX_DEPTH:
        raise CodecError(f"values nested deeper than {_MAX_DEPTH}")
    r.depth += 1
    out = _decode_container(r, tag) if decoder is None else decoder(r)
    r.depth -= 1
    return out


def _decode_container(r: _Reader, tag: int) -> Any:
    n = r.varint()
    if tag == _T_LIST:
        out: Any = [_decode_value(r) for _ in range(n)]
    elif tag == _T_TUPLE:
        out = tuple([_decode_value(r) for _ in range(n)])
    else:
        out = {}
        for _ in range(n):
            key = _decode_value(r)
            value = _decode_value(r)
            try:
                out[key] = value
            except TypeError:
                raise CodecError(f"unhashable dict key {type(key).__name__}") from None
    return out


# ---------------------------------------------------------------------
# public API

def encode(obj: Any) -> bytes:
    """Encode one value / protocol object tree to bytes."""
    out = bytearray()
    _encode_value(out, obj)
    return bytes(out)


def decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode`; rejects trailing junk."""
    r = _Reader(data)
    obj = _decode_value(r)
    if r.pos != len(data):
        raise CodecError(f"{len(data) - r.pos} trailing bytes after frame")
    return obj


def decode_envelope(data: bytes) -> Tuple[str, str, int]:
    """The head of ``encode((src, dst, payload))``: ``src``, ``dst`` and
    the offset at which ``payload``'s encoding starts."""
    r = _Reader(data)
    if r.byte() == _T_TUPLE and r.varint() == 3 and r.byte() == _T_STR:
        src = r.string()
        if r.byte() == _T_STR:
            return src, r.string(), r.pos
    raise CodecError("frame is not a (str, str, payload) envelope")


#: What peers and the orderer broadcast: receivers get equal bytes.
_SHARED_TAGS = frozenset((_T_DELIVER_BLOCK, _T_VOTE, _T_SYNC_HASH))


def decode_shared(data: bytes) -> Any:
    """:func:`decode`, except that equal bytes of a vote, sync hash or
    block delivery decode to one object per process (DESIGN.md §17)."""
    if data and data[0] in _SHARED_TAGS:
        return cached_decoding(data, decode)
    return decode(data)
