"""Registry of UDFs known to a site (server or client)."""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import UdfError
from repro.client.sandbox import Sandbox, SandboxPolicy
from repro.client.udf import UdfDefinition, UdfSite
from repro.relational.types import DataType, FLOAT


class UdfRegistry:
    """A case-insensitive mapping from UDF names to definitions."""

    def __init__(self) -> None:
        self._udfs: Dict[str, UdfDefinition] = {}
        #: Counts every register, replace and unregister.
        self.generation = 0
        self._sandbox = Sandbox(SandboxPolicy())

    # -- registration -------------------------------------------------------------

    def register(self, definition: UdfDefinition, replace: bool = False) -> UdfDefinition:
        key = definition.name.lower()
        if key in self._udfs and not replace:
            raise UdfError(f"UDF {definition.name!r} is already registered")
        self._udfs[key] = definition
        self.generation += 1
        return definition

    def register_function(
        self,
        name: str,
        function: Callable[..., Any],
        site: UdfSite = UdfSite.CLIENT,
        result_dtype: DataType = FLOAT,
        result_size_bytes: Optional[int] = None,
        cost_per_call_seconds: float = 0.0005,
        selectivity: float = 0.5,
        description: str = "",
        replace: bool = False,
        actual_cost_per_call_seconds: Optional[float] = None,
    ) -> UdfDefinition:
        """Register a plain Python callable as a UDF."""
        definition = UdfDefinition(
            name=name,
            function=function,
            site=site,
            result_dtype=result_dtype,
            result_size_bytes=result_size_bytes,
            cost_per_call_seconds=cost_per_call_seconds,
            actual_cost_per_call_seconds=actual_cost_per_call_seconds,
            selectivity=selectivity,
            description=description,
        )
        return self.register(definition, replace=replace)

    def register_source(
        self,
        name: str,
        source: str,
        entry_point: Optional[str] = None,
        site: UdfSite = UdfSite.CLIENT,
        result_dtype: DataType = FLOAT,
        result_size_bytes: Optional[int] = None,
        cost_per_call_seconds: float = 0.0005,
        selectivity: float = 0.5,
        description: str = "",
        replace: bool = False,
    ) -> UdfDefinition:
        """Register a UDF given as untrusted source text.

        The source is screened and compiled by the restricted-exec
        :class:`~repro.client.sandbox.Sandbox`; ``entry_point`` names the
        function to expose (defaults to ``name``).
        """
        function = self._sandbox.compile_function(source, entry_point or name)
        return self.register_function(
            name,
            function,
            site=site,
            result_dtype=result_dtype,
            result_size_bytes=result_size_bytes,
            cost_per_call_seconds=cost_per_call_seconds,
            selectivity=selectivity,
            description=description or "sandboxed source UDF",
            replace=replace,
        )

    def unregister(self, name: str) -> None:
        key = name.lower()
        if key not in self._udfs:
            raise UdfError(f"UDF {name!r} is not registered")
        del self._udfs[key]
        self.generation += 1

    # -- lookup --------------------------------------------------------------------

    def get(self, name: str) -> UdfDefinition:
        key = name.lower()
        if key not in self._udfs:
            raise UdfError(f"UDF {name!r} is not registered")
        return self._udfs[key]

    def maybe_get(self, name: str) -> Optional[UdfDefinition]:
        return self._udfs.get(name.lower())

    def has(self, name: str) -> bool:
        return name.lower() in self._udfs

    def names(self) -> List[str]:
        return sorted(udf.name for udf in self._udfs.values())

    def client_site_names(self) -> List[str]:
        return sorted(udf.name for udf in self._udfs.values() if udf.is_client_site)

    def server_site_names(self) -> List[str]:
        return sorted(udf.name for udf in self._udfs.values() if not udf.is_client_site)

    def callables(self, site: Optional[UdfSite] = None) -> Dict[str, Callable[..., Any]]:
        """Name → callable mapping for expression binding at the given site."""
        result: Dict[str, Callable[..., Any]] = {}
        for udf in self._udfs.values():
            if site is not None and udf.site is not site:
                continue
            result[udf.name] = udf.invoke_positional
        return result

    def __contains__(self, name: str) -> bool:
        return self.has(name)

    def __iter__(self) -> Iterator[UdfDefinition]:
        return iter(self._udfs.values())

    def __len__(self) -> int:
        return len(self._udfs)

    def __repr__(self) -> str:
        return f"UdfRegistry({self.names()})"
