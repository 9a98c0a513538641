"""URI-style model-handle resolution: one registry, every backend.

:func:`open_model` is the public entry point for inference.  It maps a
*handle* — whatever a config file, CLI flag, or another process can
hand you — to a live :class:`~repro.api.protocol.Predictor`:

===========================  ===================================================
handle                       resolves to
===========================  ===================================================
``path/to/model.urlmodel``   memory-mapped artifact (``ServingIdentifier``)
``path/to/model.pkl``        legacy pickle (works, emits ``DeprecationWarning``)
``store://name``             named artifact in a :class:`~repro.store.ModelStore`
``store://name@<checksum>``  same, pinned to a checksum prefix
``repro://<socket>``         running serving daemon (``RemoteIdentifier``)
fitted identifier            passes through unchanged
``ModelHandle``              ``load()``-ed from its store
===========================  ===================================================

URI handles also accept **per-scheme options** as a query string, so a
handle can carry everything a fresh process needs to resolve it — no
environment-variable plumbing: ``store://name?root=/srv/models`` pins
the store root, ``repro://sock?timeout=5`` the daemon dial timeout, and
``repro://sock?retries=8&backoff=0.1&deadline=2`` the client's
fault-tolerance posture (:class:`~repro.store.client.RetryPolicy`:
retry budget, initial backoff seconds, end-to-end request deadline).
Each built-in scheme reads its options through one table
(:data:`_OPTIONS`), wherever a handle is parsed: an unknown, repeated
or unreadable option is refused by every entry point alike.
:func:`portable_handle` produces exactly such a self-contained handle
string for shipping to worker processes (the bulk engine re-opens
models that way).

Resolution failures raise the typed :mod:`repro.api.errors` hierarchy
with actionable messages.  New backends plug in via
:func:`register_scheme` — callers keep calling ``open_model`` and never
learn where the weights live, which is the whole point of the facade.

This module holds the *only* copy of the handle-sniffing logic that
used to be duplicated across ``cli.py``, ``crawler/focused.py`` and
``store/client.py``; those now delegate here.
"""

from __future__ import annotations

import os
import pickle
import re
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Union, cast
from urllib.parse import parse_qsl, quote

from repro.api.errors import (
    BackendUnavailableError,
    InvalidHandleError,
    ModelNotFoundError,
    ResolveError,
    UnknownSchemeError,
    UnreadableModelError,
    VersionMismatchError,
)
from repro.api.protocol import Predictor

if TYPE_CHECKING:
    from repro.store.client import RetryPolicy

__all__ = [
    "DAEMON_SCHEME",
    "DEFAULT_STORE_ROOT",
    "STORE_ROOT_ENV",
    "TCP_DAEMON_SCHEME",
    "ModelHandleLike",
    "ResolveContext",
    "daemon_endpoint",
    "daemon_socket_path",
    "is_daemon_handle",
    "open_model",
    "portable_handle",
    "register_scheme",
    "registered_schemes",
    "resolve_artifact_path",
    "sniff_model_format",
    "tcp_daemon_address",
]

#: Scheme of serving-daemon handles (``repro://<socket-path>``).
DAEMON_SCHEME = "repro"

#: Scheme of TCP serving-daemon handles (``repro+tcp://<host>:<port>``).
TCP_DAEMON_SCHEME = "repro+tcp"

#: Scheme of model-store handles (``store://<name>[@<checksum-prefix>]``).
STORE_SCHEME = "store"

#: Environment variable naming the default ``store://`` root directory.
STORE_ROOT_ENV = "REPRO_MODEL_STORE"

#: ``store://`` root used when neither the caller nor the environment
#: names one.
DEFAULT_STORE_ROOT = "models"

#: Anything :func:`open_model` accepts.
ModelHandleLike = Union[str, os.PathLike, Predictor, Any]

_SCHEME = re.compile(r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*)://(?P<rest>.*)$")


@dataclass(frozen=True)
class ResolveContext:
    """Options threaded from :func:`open_model` into scheme resolvers."""

    store_root: Optional[Union[str, os.PathLike]] = None
    timeout: float = 30.0


#: A scheme resolver: everything after ``<scheme>://`` plus the resolve
#: options, returning a live predictor (raise :class:`ResolveError`
#: subclasses on failure).
SchemeResolver = Callable[[str, ResolveContext], Predictor]

_SCHEMES: dict[str, SchemeResolver] = {}


def register_scheme(
    scheme: str, resolver: SchemeResolver, *, replace: bool = False
) -> None:
    """Register ``resolver`` for ``<scheme>://`` handles.

    This is the facade's extension point: a quantised-weights backend,
    a sharded store, or a TCP daemon registers its scheme once and
    every ``open_model`` caller can reach it.  Re-registering an
    existing scheme requires ``replace=True`` (guards against two
    libraries silently fighting over one scheme).
    """
    if not re.fullmatch(r"[A-Za-z][A-Za-z0-9+.-]*", scheme):
        raise ValueError(f"invalid scheme name {scheme!r}")
    key = scheme.lower()
    if key in _SCHEMES and not replace:
        raise ValueError(
            f"scheme {scheme!r} is already registered; pass replace=True "
            "to override it"
        )
    _SCHEMES[key] = resolver


def registered_schemes() -> tuple[str, ...]:
    """The schemes :func:`open_model` currently understands, sorted."""
    return tuple(sorted(_SCHEMES))


def _split_scheme(handle: str) -> Optional[tuple[str, str]]:
    """``(scheme, rest)`` of a URI-style handle, else ``None``.

    Requires the literal ``://``, so Windows drive letters
    (``C:\\models``) and plain relative paths never match.
    """
    match = _SCHEME.match(handle)
    if match is None:
        return None
    return match.group("scheme").lower(), match.group("rest")


def _seconds(text: str) -> float:
    seconds = float(text)
    if not 0 < seconds < float("inf"):
        raise ValueError(text)
    return seconds


def _count(text: str) -> int:
    count = int(text)
    if count < 0:
        raise ValueError(text)
    return count


#: Spellings a flag option accepts (case-insensitive).
_FLAGS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _flag(text: str) -> bool:
    return _FLAGS[text.strip().lower()]


#: An option's reader (it raises ``ValueError`` or ``KeyError`` on a
#: value it cannot read) and what a readable value is.
_Option = tuple[Callable[[str], Any], str]

_SECONDS: _Option = (_seconds, "a positive number of seconds")

#: The query-string options of each built-in scheme (both daemon
#: schemes share one table); ``docs/api.md`` lists the same table.
_OPTIONS: dict[str, dict[str, _Option]] = {
    STORE_SCHEME: {"root": (str, "a directory")},
    DAEMON_SCHEME: {
        "timeout": _SECONDS,
        "retries": (_count, "a non-negative integer"),
        "backoff": _SECONDS,
        "deadline": _SECONDS,
        "tracing": (_flag, "a flag (1/0, true/false, yes/no, on/off)"),
    },
}
_OPTIONS[TCP_DAEMON_SCHEME] = _OPTIONS[DAEMON_SCHEME]


def _split_options(scheme: str, rest: str) -> tuple[str, dict[str, Any]]:
    """``(body, options)`` of everything after ``<scheme>://``, each
    option value read by the scheme's table in :data:`_OPTIONS`.

    Options ride in a query string (``store://name?root=/srv/models``)
    so a handle string alone can carry resolver configuration between
    processes.  Unknown, repeated or unreadable options raise
    :class:`InvalidHandleError` — a typo'd option silently ignored
    would resolve the *wrong* model, and a bad value found only when
    the handle is dialled would fail far from where it was written.
    """
    body, separator, query = rest.partition("?")
    if not separator:
        return rest, {}
    handle = f"{scheme}://{rest}"
    table = _OPTIONS[scheme]
    options: dict[str, Any] = {}
    for key, text in parse_qsl(query, keep_blank_values=True):
        if key not in table:
            problem = (
                f"unknown {scheme}:// option {key!r} (supported: "
                f"{', '.join(sorted(table))})"
            )
        elif key in options:
            problem = f"{scheme}:// option {key!r} given twice"
        else:
            read, readable = table[key]
            try:
                options[key] = read(text)
                continue
            except (KeyError, ValueError):
                problem = (
                    f"{scheme}:// option {key}={text!r} is not {readable}"
                )
        raise InvalidHandleError(f"{problem} in {handle!r}", handle=handle)
    return body, options


# -- daemon handles ---------------------------------------------------------------

#: The address grammar of each daemon scheme, as errors spell it.
_DAEMON_FORMS = {
    DAEMON_SCHEME: f"{DAEMON_SCHEME}://<socket-path>",
    TCP_DAEMON_SCHEME: f"{TCP_DAEMON_SCHEME}://<host>:<port>",
}


def is_daemon_handle(value: object) -> bool:
    """True for daemon handle strings (``repro://``, ``repro+tcp://``)."""
    if not isinstance(value, str):
        return False
    split = _split_scheme(value)
    return split is not None and split[0] in _DAEMON_FORMS


def _parse_daemon(
    handle: str, schemes: tuple[str, ...] = tuple(_DAEMON_FORMS)
) -> tuple[Union[str, tuple[str, int]], dict[str, Any]]:
    """``(address, options)`` of a daemon handle of one of ``schemes``.

    The one parse of both daemon grammars: ``repro://<socket-path>``
    gives the socket's filesystem path, ``repro+tcp://<host>:<port>`` a
    ``(host, port)`` pair (an empty host means loopback), and the
    options come back read (:func:`_split_options`).
    """
    split = _split_scheme(handle) if isinstance(handle, str) else None
    if split is None or split[0] not in schemes:
        raise InvalidHandleError(
            f"not a daemon serving handle: {handle!r}; expected "
            f"{' or '.join(_DAEMON_FORMS[scheme] for scheme in schemes)}",
            handle=str(handle),
        )
    scheme, rest = split
    body, options = _split_options(scheme, rest)
    if scheme == DAEMON_SCHEME:
        if not body:
            raise InvalidHandleError(
                f"serving handle has an empty socket path: {handle!r}; "
                f"expected {_DAEMON_FORMS[scheme]}",
                handle=handle,
            )
        return body, options
    host, separator, port_text = body.rpartition(":")
    try:
        port = int(port_text)
        if not separator or not 0 < port < 65536:
            raise ValueError
    except ValueError:
        raise InvalidHandleError(
            f"serving handle needs host:port after the scheme: {handle!r} "
            f"(expected {_DAEMON_FORMS[scheme]})",
            handle=handle,
        ) from None
    return (host or "127.0.0.1", port), options


def daemon_socket_path(handle: str) -> str:
    """Socket path of a ``repro://<socket-path>`` handle string.

    Everything after the scheme (up to an optional ``?timeout=``
    query) is the filesystem path of the daemon's Unix socket, absolute
    or relative (``repro:///run/repro.sock``, ``repro://model.sock``).
    Raises :class:`InvalidHandleError` (a ``ValueError``) for strings
    that do not carry the scheme, carry an empty path or an unreadable
    option — use :func:`is_daemon_handle` to probe first.
    """
    return cast(str, _parse_daemon(handle, (DAEMON_SCHEME,))[0])


def tcp_daemon_address(handle: str) -> tuple[str, int]:
    """``(host, port)`` of a ``repro+tcp://host:port`` handle string.

    The host is anything before the last ``:`` (a hostname or IPv4
    literal; an empty host means loopback), the port a decimal integer.
    Raises :class:`InvalidHandleError` for strings without the scheme,
    with an unparsable endpoint or with an unreadable option.
    """
    return cast(
        tuple[str, int], _parse_daemon(handle, (TCP_DAEMON_SCHEME,))[0]
    )


def daemon_endpoint(
    handle: str, *, timeout: float = 30.0
) -> tuple[
    Union[str, tuple[str, int]], float, Optional["RetryPolicy"], bool
]:
    """``(address, timeout, retry, tracing)`` a daemon handle dials.

    Both daemon handle grammars — ``repro://<socket-path>`` yields a
    filesystem path, ``repro+tcp://<host>:<port>`` a ``(host, port)``
    pair — together with the dial settings the handle's
    ``?timeout=&retries=&backoff=&deadline=&tracing=`` options pin
    (handle options beat the ``timeout`` argument, exactly as in
    :func:`open_model`; a retry option left out keeps the
    :class:`~repro.store.client.RetryPolicy` default).  The async
    facade (:func:`repro.api.aopen_model`) resolves daemon handles
    through this instead of the sync resolver so both stacks agree on
    the grammar by construction.  Raises :class:`InvalidHandleError`
    for non-daemon handles.
    """
    from repro.store.client import RetryPolicy

    address, options = _parse_daemon(handle)
    retry: Optional[RetryPolicy] = None
    if options.keys() & {"retries", "backoff", "deadline"}:
        defaults = RetryPolicy()
        backoff = options.get("backoff", defaults.backoff)
        retry = RetryPolicy(
            retries=options.get("retries", defaults.retries),
            backoff=backoff,
            # A handle pinning a large initial backoff must not trip the
            # policy's backoff <= backoff_max invariant.
            backoff_max=max(defaults.backoff_max, backoff),
            deadline=options.get("deadline"),
        )
    return (
        address, options.get("timeout", timeout), retry,
        options.get("tracing", False),
    )


def _unusable_daemon(handle: str, error: Exception) -> BackendUnavailableError:
    """The facade error for a daemon handle whose liveness ping failed.

    A dead endpoint *or* a live daemon refusing the ping (e.g. a
    protocol-version gate): either way the backend is unusable.  The
    client error already names the endpoint and the fix.
    """
    return BackendUnavailableError(
        f"{error}; or open the model's artifact path directly",
        handle=handle,
    )


def _daemon_resolver(scheme: str) -> SchemeResolver:
    """The resolver of one daemon scheme (``repro://``,
    ``repro+tcp://``): dial the daemon and verify it answers.

    The handle may pin its own dial timeout (``?timeout=5``), the
    client's retry posture (``?retries=8&backoff=0.1&deadline=2`` —
    :class:`~repro.store.client.RetryPolicy` budget, initial backoff
    seconds, end-to-end per-request deadline seconds), and per-request
    tracing (``?tracing=1``) — handle options beat the
    :class:`ResolveContext` defaults, so a worker process re-opening
    the handle needs no extra arguments.
    """

    def resolve(rest: str, context: ResolveContext) -> Predictor:
        from repro.store.client import DaemonError, RemoteIdentifier

        handle = f"{scheme}://{rest}"
        address, timeout, retry, tracing = daemon_endpoint(
            handle, timeout=context.timeout
        )
        remote = RemoteIdentifier.connect(
            address, timeout=timeout, retry=retry, tracing=tracing
        )
        try:
            remote.client.ping()
        except DaemonError as error:
            remote.close()
            raise _unusable_daemon(handle, error) from error
        return cast(Predictor, remote)

    return resolve


# -- store handles ----------------------------------------------------------------


def _store_root(
    context: ResolveContext, options: Optional[dict[str, Any]] = None
) -> Union[str, os.PathLike]:
    """The ``store://`` root directory for this resolution.

    Priority: the handle's own ``?root=`` option, then the caller's
    ``store_root``, then ``$REPRO_MODEL_STORE``, then the default.
    """
    if options and options.get("root"):
        return options["root"]
    if context.store_root is not None:
        return context.store_root
    return os.environ.get(STORE_ROOT_ENV) or DEFAULT_STORE_ROOT


def _store_lookup(rest: str, context: ResolveContext) -> Any:
    """The :class:`~repro.store.registry.ModelHandle` a ``store://``
    handle names, after existence and version checks."""
    from repro.store.format import ArtifactError
    from repro.store.registry import ModelStore

    body, options = _split_options(STORE_SCHEME, rest)
    name, _, version = body.partition("@")
    handle = f"{STORE_SCHEME}://{rest}"
    if not name:
        raise InvalidHandleError(
            f"store handle names no model: {handle!r}; expected "
            "store://<name>[@<checksum-prefix>][?root=<dir>]",
            handle=handle,
        )
    root = _store_root(context, options)
    # A lookup is a read: do not go through ModelStore(root), whose
    # constructor mkdirs the root (a failed resolve must not litter the
    # filesystem, and an unwritable directory must not raise untyped).
    if not Path(root).is_dir():
        raise ModelNotFoundError(
            f"store root {os.fspath(root)!r} does not exist (handle "
            f"{handle!r}); save a model there with ModelStore.save, or "
            f"point store_root / ${STORE_ROOT_ENV} at the right directory",
            handle=handle,
        )
    store = ModelStore(root)
    try:
        exists = name in store
    except ValueError as error:
        raise InvalidHandleError(
            f"invalid store model name {name!r}: {error}", handle=handle
        ) from error
    if not exists:
        available = [entry.name for entry in store.list()]
        raise ModelNotFoundError(
            f"model {name!r} is not in the store at {store.root} "
            f"(have: {available}); train one with 'repro train' and "
            "ModelStore.save, or point REPRO_MODEL_STORE elsewhere",
            handle=handle,
        )
    try:
        described = store.describe(name)
    except ArtifactError as error:
        raise UnreadableModelError(
            f"stored model {name!r} at {store.path(name)} is unreadable: "
            f"{error}",
            handle=handle,
        ) from error
    if version and not described.checksum.startswith(version.lower()):
        raise VersionMismatchError(
            f"store model {name!r} has checksum "
            f"{described.checksum[:16]}..., which does not match the "
            f"pinned version {version!r}; drop the pin or re-deploy the "
            "expected artifact",
            handle=handle,
        )
    return described


def _resolve_store(rest: str, context: ResolveContext) -> Predictor:
    """``store://`` resolver: named artifact out of a model store."""
    described = _store_lookup(rest, context)
    return _load_artifact(
        described.path, handle=f"{STORE_SCHEME}://{rest}"
    )


# -- filesystem paths -------------------------------------------------------------


def sniff_model_format(path: Union[str, os.PathLike]) -> str:
    """``"artifact"`` or ``"pickle"`` for an existing model file.

    The single magic-byte probe behind every caller that used to sniff
    on its own.  Raises :class:`ModelNotFoundError` when nothing is at
    ``path``.
    """
    from repro.store.format import is_artifact

    if not Path(path).exists():
        raise ModelNotFoundError(
            f"no model file at {os.fspath(path)!r}; train one with "
            "'repro train --out <path>'",
            handle=os.fspath(path),
        )
    return "artifact" if is_artifact(path) else "pickle"


def _load_artifact(source: Any, handle: str) -> Predictor:
    """Load an artifact — a path, or a
    :class:`~repro.store.registry.ModelHandle`-like object's
    ``load()`` — mapping store errors onto the typed resolve errors
    (the file can vanish or rot between ``store.list()`` and the
    load)."""
    from repro.store.artifact import load_identifier
    from repro.store.format import ArtifactError, ArtifactVersionError

    is_path = isinstance(source, (str, os.PathLike))
    named = os.fspath(source) if is_path else handle
    try:
        if is_path:
            return cast(Predictor, load_identifier(source))
        return cast(Predictor, source.load())
    except ArtifactVersionError as error:
        raise VersionMismatchError(
            f"model artifact {named!r} was written by an incompatible "
            f"format version ({error}); re-save it with this release's "
            "'repro train'",
            handle=handle,
        ) from error
    except FileNotFoundError as error:
        raise ModelNotFoundError(
            f"model artifact {named!r} no longer exists ({error})",
            handle=handle,
        ) from error
    except (ArtifactError, OSError) as error:
        raise UnreadableModelError(
            f"model artifact {named!r} is unreadable: {error}",
            handle=handle,
        ) from error


def _load_pickle(path: Union[str, os.PathLike], handle: str) -> Predictor:
    """Load a legacy pickle model, warning that the format is deprecated."""
    warnings.warn(
        f"{os.fspath(path)!r} is a legacy pickle model; pickle loading is "
        "deprecated — retrain with 'repro train --format artifact' (or "
        "repro.store.save_identifier) and open_model() the artifact",
        DeprecationWarning,
        stacklevel=4,
    )
    try:
        with open(path, "rb") as stream:
            loaded = pickle.load(stream)
    except ResolveError:
        raise
    except Exception as error:
        raise UnreadableModelError(
            f"{os.fspath(path)!r} is neither a model artifact nor a "
            f"loadable pickle ({type(error).__name__}: {error})",
            handle=handle,
        ) from error
    if not hasattr(loaded, "scores_many") or not hasattr(loaded, "decisions"):
        raise UnreadableModelError(
            f"{os.fspath(path)!r} unpickled to "
            f"{type(loaded).__name__}, which is not a language "
            "identifier",
            handle=handle,
        )
    return cast(Predictor, loaded)


def _resolve_path(path: Union[str, os.PathLike]) -> Predictor:
    """Resolve a filesystem path: artifact via mmap, else legacy pickle."""
    handle = os.fspath(path)
    if sniff_model_format(path) == "artifact":
        return _load_artifact(path, handle=str(handle))
    return _load_pickle(path, handle=str(handle))


# -- the facade entry points ------------------------------------------------------


def _scheme_resolver(scheme: str, handle: str) -> SchemeResolver:
    """The resolver registered for ``scheme``; an unknown scheme is
    refused with the one error every entry point raises for it."""
    resolver = _SCHEMES.get(scheme)
    if resolver is None:
        raise UnknownSchemeError(
            f"no resolver registered for scheme {scheme!r} "
            f"(handle {handle!r}); registered schemes: "
            f"{', '.join(registered_schemes())}. Third-party "
            "backends add theirs via repro.api.register_scheme().",
            handle=handle,
        )
    return resolver


def open_model(
    handle: ModelHandleLike,
    *,
    store_root: Optional[Union[str, os.PathLike]] = None,
    timeout: float = 30.0,
) -> Predictor:
    """Resolve any model handle to a live :class:`Predictor`.

    See the module docstring for the handle grammar.  ``store_root``
    overrides the ``store://`` root directory (default: the
    ``REPRO_MODEL_STORE`` environment variable, then ``"models"``);
    ``timeout`` applies to daemon-backed handles.  Objects that already
    predict (anything with ``scores_many``/``decisions``) pass through
    unchanged, so code can accept "an identifier or a handle" with one
    call.  Failures raise the :class:`~repro.api.errors.ResolveError`
    hierarchy; a resolved daemon handle has been verified to answer.
    """
    if hasattr(handle, "scores_many") and hasattr(handle, "decisions"):
        return cast(Predictor, handle)
    if hasattr(handle, "load") and not isinstance(handle, (str, os.PathLike)):
        # a ModelHandle
        return _load_artifact(
            handle, handle=str(getattr(handle, "name", None) or repr(handle))
        )
    if not isinstance(handle, (str, os.PathLike)):
        raise TypeError(
            "expected a fitted identifier, a ModelHandle, a handle string "
            "(path, store://name, repro://socket), or a model path; got "
            f"{type(handle).__name__}"
        )
    context = ResolveContext(store_root=store_root, timeout=timeout)
    if isinstance(handle, str):
        split = _split_scheme(handle)
        if split is not None:
            scheme, rest = split
            return _scheme_resolver(scheme, handle)(rest, context)
    return _resolve_path(handle)


def resolve_artifact_path(
    handle: Union[str, os.PathLike],
    *,
    store_root: Optional[Union[str, os.PathLike]] = None,
) -> str:
    """The on-disk artifact path a handle names, for path-based serving.

    The serving daemon (``serve start``) needs a *file* every worker
    can ``mmap``, not an in-process predictor; this
    resolves plain paths and ``store://`` names to that file and
    rejects everything that has none.  Raises
    :class:`UnreadableModelError` for pickles (serving requires the
    artifact format), :class:`InvalidHandleError` for daemon handles
    (a daemon is already serving that model) and other registered
    schemes, and :class:`UnknownSchemeError` for unregistered ones.
    """
    if isinstance(handle, str):
        split = _split_scheme(handle)
        if split is not None:
            scheme, rest = split
            if scheme == STORE_SCHEME:
                context = ResolveContext(store_root=store_root)
                return str(_store_lookup(rest, context).path)
            _scheme_resolver(scheme, handle)  # an unknown one is refused
            raise InvalidHandleError(
                f"{handle!r} points at a running daemon or another live "
                "backend, not an artifact file; serve commands need a "
                "model path or store:// name",
                handle=handle,
            )
    if sniff_model_format(handle) != "artifact":
        raise UnreadableModelError(
            f"serve requires a model artifact (got {os.fspath(handle)!r}, "
            "a legacy pickle); retrain with 'train --format artifact'",
            handle=os.fspath(handle),
        )
    return os.fspath(handle)


def portable_handle(
    handle: Union[str, os.PathLike],
    *,
    store_root: Optional[Union[str, os.PathLike]] = None,
) -> str:
    """A handle string that re-opens the same model in *any* process.

    Worker fan-out (the bulk engine) ships model
    handles to freshly spawned processes that share neither this
    process's working directory nor its resolver arguments.  This
    canonicalises a handle so a bare ``open_model(portable)`` elsewhere
    resolves identically:

    * filesystem paths become absolute;
    * ``store://`` handles get the resolved root pinned as a
      ``?root=`` option (handle option > ``store_root`` argument >
      ``$REPRO_MODEL_STORE`` > default), made absolute;
    * ``repro://`` handles get their socket path made absolute
      (options kept as written);
    * ``repro+tcp://`` handles pass through unchanged;
    * third-party scheme handles pass through unchanged (only their
      own resolver could know what to canonicalise).

    Built-in scheme handles are parsed, so a malformed one — an
    unknown option, an unreadable value — is refused here, before any
    worker is spawned.

    Live predictor objects have no portable form — save them to an
    artifact first; passing one raises ``TypeError``.
    """
    if isinstance(handle, os.PathLike):
        handle = os.fspath(handle)
    if not isinstance(handle, str):
        raise TypeError(
            "only handle strings and paths have a portable form; got "
            f"{type(handle).__name__} — save the model with "
            "repro.store.save_identifier and pass the artifact path"
        )
    split = _split_scheme(handle)
    if split is None:
        return str(Path(handle).resolve())
    scheme, rest = split
    if scheme in _DAEMON_FORMS:
        address, _ = _parse_daemon(handle)
        if scheme == TCP_DAEMON_SCHEME:
            return handle
        absolute = Path(cast(str, address)).resolve()
        _, separator, query = rest.partition("?")
        return f"{DAEMON_SCHEME}://{absolute}{separator}{query}"
    if scheme != STORE_SCHEME:
        return handle
    body, options = _split_options(STORE_SCHEME, rest)
    context = ResolveContext(store_root=store_root)
    root = Path(os.fspath(_store_root(context, options))).resolve()
    return f"{STORE_SCHEME}://{body}?root={quote(str(root))}"


register_scheme(DAEMON_SCHEME, _daemon_resolver(DAEMON_SCHEME))
register_scheme(TCP_DAEMON_SCHEME, _daemon_resolver(TCP_DAEMON_SCHEME))
register_scheme(STORE_SCHEME, _resolve_store)
